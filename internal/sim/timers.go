package sim

import (
	"container/heap"

	"goat/internal/trace"
)

// timer wakes a sleeping goroutine at a virtual instant.
type timer struct {
	at  int64 // virtual time (nanoseconds)
	seq int64 // tie-break: registration order
	g   *G
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// AddTimer schedules g to be woken at virtual time `at`. The goroutine must
// park itself (Block with BlockSleep) immediately after registering. With
// timer-skew faults enabled, the requested duration is stretched or shrunk
// by the plan's deterministic skew factor and the skew recorded in the ECT.
func (s *Scheduler) AddTimer(at int64, g *G) {
	if s.faults != nil {
		delta := at - s.now
		if skewed := s.faults.SkewDelta(delta); skewed != delta {
			s.Emit(&trace.Event{G: g.id, Type: trace.EvFaultTimerSkew, Aux: skewed - delta})
			at = s.now + skewed
		}
	}
	s.timerSeq++
	heap.Push(&s.timers, timer{at: at, seq: s.timerSeq, g: g})
}

// fireTimers advances virtual time to the earliest pending timer and makes
// its goroutines runnable. It reports whether any goroutine was woken.
func (s *Scheduler) fireTimers() bool {
	fired := false
	for s.timers.Len() > 0 {
		next := s.timers[0]
		if fired && next.at > s.now {
			break
		}
		heap.Pop(&s.timers)
		if next.g.state != StateBlocked || next.g.reason != trace.BlockSleep {
			// The goroutine was woken by other means (or ended); stale timer.
			continue
		}
		if next.at > s.now {
			s.now = next.at
		}
		next.g.state = StateRunnable
		next.g.wakeNote = nil
		s.Emit(&trace.Event{G: next.g.id, Type: trace.EvGoUnblock, Peer: next.g.id})
		s.runq = append(s.runq, next.g)
		fired = true
	}
	return fired
}
