package sim

import (
	"goat/internal/fault"
	"goat/internal/trace"
)

// This file applies the deterministic fault plan (internal/fault) inside
// the scheduler. All fault decisions were fixed at plan-construction time
// from (Seed, Options.Faults); nothing here consults the schedule decider,
// so faults perturb the environment without invalidating recorded
// schedule scripts.

// stalledG is a goroutine held unrunnable by an injected stall fault.
type stalledG struct {
	g     *G
	until int // scheduler step at which the goroutine is released
}

// RegisterCancel registers a cancellation thunk as a target for injected
// context-cancellation faults. Primitives that create cancellable state
// (conc contexts) call it at creation time. Registration is a no-op when
// fault injection is disabled, so the registry cannot grow in normal runs.
func (s *Scheduler) RegisterCancel(fn func(*G)) {
	if s.faults != nil {
		s.cancels = append(s.cancels, fn)
	}
}

// applyFaults fires every due fault at this CU point, in a fixed order:
// stall, cancel, slowdown, panic. The panic is last because it unwinds
// the goroutine. Slowdowns wait for a channel or select CU; cancels wait
// until at least one cancellable context is registered — pending actions
// stay queued until an eligible point arrives.
func (s *Scheduler) applyFaults(g *G, cat trace.Category, file string, line int) {
	op := int64(s.ops)
	if _, ok := s.faults.Due(fault.KindStall, op); ok {
		a := s.faults.Fire(fault.KindStall, op)
		s.Emit(&trace.Event{G: g.id, Type: trace.EvFaultStall, Aux: a.Param, File: file, Line: line})
		s.stalled = append(s.stalled, stalledG{g: g, until: s.steps + int(a.Param)})
		g.Block(trace.BlockFault, 0, file, line)
	}
	if _, ok := s.faults.Due(fault.KindCancel, op); ok && len(s.cancels) > 0 {
		a := s.faults.Fire(fault.KindCancel, op)
		idx := int(a.Param % int64(len(s.cancels)))
		fn := s.cancels[idx]
		// A context cancels at most once; dropping the registration keeps
		// later picks aimed at still-live contexts.
		s.cancels = append(s.cancels[:idx], s.cancels[idx+1:]...)
		s.Emit(&trace.Event{G: g.id, Type: trace.EvFaultCancel, Aux: int64(idx), File: file, Line: line})
		fn(g)
	}
	if cat == trace.CatChannel || cat == trace.CatSelect {
		if _, ok := s.faults.Due(fault.KindSlow, op); ok {
			a := s.faults.Fire(fault.KindSlow, op)
			s.Emit(&trace.Event{G: g.id, Type: trace.EvFaultSlow, Aux: a.Param, File: file, Line: line})
			for i := int64(0); i < a.Param; i++ {
				g.yield(trace.EvGoPreempt, file, line)
			}
		}
	}
	if _, ok := s.faults.Due(fault.KindPanic, op); ok {
		a := s.faults.Fire(fault.KindPanic, op)
		s.Emit(&trace.Event{G: g.id, Type: trace.EvFaultPanic, File: file, Line: line})
		panic(fault.InjectedPanic{Op: a.At})
	}
}

// releaseStalled returns due stalled goroutines to the run queue. With
// force set it releases the earliest-scheduled stalled goroutine even if
// its release step has not been reached yet — the caller invokes that only
// when nothing else can make progress, so an injected stall can never be
// misread as a deadlock or starve the run forever.
func (s *Scheduler) releaseStalled(force bool) bool {
	if len(s.stalled) == 0 {
		return false
	}
	released := false
	keep := s.stalled[:0]
	for _, st := range s.stalled {
		if st.until <= s.steps {
			s.wakeStalled(st.g)
			released = true
		} else {
			keep = append(keep, st)
		}
	}
	s.stalled = keep
	if released || !force {
		return released
	}
	earliest := 0
	for i, st := range s.stalled {
		if st.until < s.stalled[earliest].until {
			earliest = i
		}
	}
	g := s.stalled[earliest].g
	s.stalled = append(s.stalled[:earliest], s.stalled[earliest+1:]...)
	s.wakeStalled(g)
	return true
}

func (s *Scheduler) wakeStalled(g *G) {
	if g.state != StateBlocked || g.reason != trace.BlockFault {
		return // already unwound; nothing to wake
	}
	g.state = StateRunnable
	g.wakeNote = nil
	s.Emit(&trace.Event{G: g.id, Type: trace.EvGoUnblock, Peer: g.id})
	s.runq = append(s.runq, g)
}
