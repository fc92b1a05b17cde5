//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"

	"goat/internal/trace"
)

// A host is a coroutine that lends its stack to simulated goroutines, one
// at a time. The scheduler switches into it with next and the simulated
// goroutine switches back out with yield (iter.Pull's runtime coroutine
// switch), so control moves between the two on one OS thread and no
// other thread is woken. Because a switch transfers control, exactly one
// simulated goroutine runs at any moment by construction.
//
// Hosts are pooled: service-shaped workloads create hundreds of
// thousands of short-lived handlers per run, and a pooled host keeps its
// grown stack warm across simulated lifetimes and across runs (a fresh
// coroutine per goroutine made a campaign cell about 3x slower). A host
// serves one simulated goroutine from its first dispatch to its end, then
// parks in a final yield until the scheduler either hands it the next
// goroutine or stops it.
type host struct {
	next  func() (bool, bool) // switch in; the first result reports that the goroutine ended
	stop  func()              // unwind a host parked between goroutines
	yield func(bool) bool     // switch out; the argument reports that the goroutine ended

	g  *G
	fn func(*G)

	// exited is set when the goroutine called runtime.Goexit: the host
	// is then parked inside the Goexit and must be retired, not pooled.
	exited bool
}

// hostFree is the global pool of parked hosts. It is a plain mutex-held
// list rather than a sync.Pool: dropping a host object would strand its
// parked coroutine forever, so hosts leave the pool only by being handed
// a goroutine or by an explicit stop when the pool is full.
var hostFree struct {
	sync.Mutex
	list []*host
}

// hostFreeCap bounds the parked-host pool; a host released beyond it is
// stopped so idle processes do not pin stacks without bound.
const hostFreeCap = 4096

// getHost takes a parked host from the pool, or starts a new one. A new
// coroutine does not run until its first next.
func getHost() *host {
	hostFree.Lock()
	if n := len(hostFree.list); n > 0 {
		h := hostFree.list[n-1]
		hostFree.list[n-1] = nil
		hostFree.list = hostFree.list[:n-1]
		hostFree.Unlock()
		return h
	}
	hostFree.Unlock()
	h := &host{}
	h.next, h.stop = iter.Pull(h.serve)
	return h
}

// putHost returns a host whose goroutine has ended to the pool. Only the
// scheduler that switched into the host calls it, after next has
// returned: the host itself must never re-pool, because another
// scheduler could take it and resume it before its final yield.
func putHost(h *host) {
	hostFree.Lock()
	if len(hostFree.list) < hostFreeCap {
		hostFree.list = append(hostFree.list, h)
		hostFree.Unlock()
		return
	}
	hostFree.Unlock()
	h.stop()
}

// serve is the coroutine body: it runs the assigned goroutine to its end,
// reports the end with a final yield, and loops when the scheduler hands
// it the next goroutine. It returns when the host is stopped.
func (h *host) serve(yield func(bool) bool) {
	h.yield = yield
	for {
		runG(h.g, h.fn)
		h.g, h.fn = nil, nil
		if !yield(true) {
			return
		}
	}
}

// runG runs one simulated goroutine from its first dispatch to its end.
// A goroutine first dispatched by stopWorld never starts.
func runG(g *G, fn func(*G)) {
	s := g.s
	if s.stopping {
		return
	}
	g.state = StateRunning
	s.Emit(&trace.Event{G: g.id, Type: trace.EvGoStart})
	returned := false
	defer func() {
		if r := recover(); r != nil {
			if _, isStop := r.(stopSignal); isStop {
				return
			}
			g.state = StatePanicked
			s.panicked = true
			s.panicVal = r
			s.panicG = g.id
			s.Emit(&trace.Event{G: g.id, Type: trace.EvGoPanic, Str: fmt.Sprint(r)})
			return
		}
		g.state = StateDone
		s.Emit(&trace.Event{G: g.id, Type: trace.EvGoEnd})
		if !returned {
			// fn called runtime.Goexit, which ends the goroutine as a
			// return would, but cannot be cancelled. Finishing it here
			// would end the coroutine, and iter.Pull would re-raise the
			// Goexit in the goroutine that called Run. So report the end
			// from inside the Goexit; the scheduler then retires the host.
			h := g.host
			h.exited = true
			h.yield(true)
		}
	}()
	fn(g)
	returned = true
}

// switchTo runs g until it leaves the processor. When g has ended, its
// host goes back to the pool, or is retired if g called runtime.Goexit.
func (s *Scheduler) switchTo(g *G) {
	h := g.host
	if ended, _ := h.next(); ended {
		g.host = nil
		if h.exited {
			retireHost(h)
		} else {
			putHost(h)
		}
	}
}

// retireHost stops a host parked inside a runtime.Goexit. Stopping lets
// the Goexit finish, and iter.Pull then re-raises it in the goroutine
// that called stop, so a goroutine of its own calls stop and ends with
// the Goexit; retireHost waits until it has.
func retireHost(h *host) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.stop()
	}()
	<-done
}

// leaveProcessor parks the calling goroutine until the scheduler dispatches
// it again, panicking with stopSignal if the world stopped meanwhile.
func (g *G) leaveProcessor() {
	g.host.yield(false)
	if g.s.stopping {
		panic(stopSignal{})
	}
	g.state = StateRunning
}
