package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// Semaphore is a counting semaphore (the buffered-channel idiom as a
// first-class primitive).
type Semaphore struct {
	id    trace.ResID
	cap   int
	held  int
	waitq []*sim.G
}

// NewSemaphore creates a semaphore with n permits.
func NewSemaphore(g *sim.G, n int) *Semaphore {
	if n <= 0 {
		panic("conc: semaphore capacity must be positive")
	}
	return &Semaphore{id: g.Sched().NewResID(), cap: n}
}

// ID returns the semaphore's resource identifier.
func (s *Semaphore) ID() trace.ResID { return s.id }

// Acquire takes a permit, parking while none is available.
func (s *Semaphore) Acquire(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	if s.held < s.cap {
		s.held++
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvMutexLock, Res: s.id, File: file, Line: line})
		return
	}
	s.waitq = append(s.waitq, g)
	g.Block(trace.BlockSync, s.id, file, line)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvMutexLock, Res: s.id, Blocked: true, File: file, Line: line})
}

// Release returns a permit, handing it directly to the first waiter.
func (s *Semaphore) Release(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	if s.held == 0 {
		panic("conc: release of unheld semaphore")
	}
	var peer trace.GoID
	if len(s.waitq) > 0 {
		next := s.waitq[0]
		s.waitq = s.waitq[1:]
		g.Ready(next, s.id, nil) // permit transfers; held stays constant
		peer = next.ID()
	} else {
		s.held--
	}
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvMutexUnlock, Res: s.id, Peer: peer, File: file, Line: line})
}
