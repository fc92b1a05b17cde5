package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// RWMutex is a reader/writer lock with writer preference, matching
// sync.RWMutex: once a writer waits, new readers queue behind it.
type RWMutex struct {
	id      trace.ResID
	readers int
	writer  bool
	wHolder trace.GoID
	wWaitq  []*sim.G
	rWaitq  []*sim.G
}

// NewRWMutex creates a reader/writer mutex.
func NewRWMutex(g *sim.G) *RWMutex {
	return &RWMutex{id: g.Sched().NewResID()}
}

// ID returns the lock's resource identifier.
func (m *RWMutex) ID() trace.ResID { return m.id }

// Lock acquires the write lock.
func (m *RWMutex) Lock(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	if !m.writer && m.readers == 0 && len(m.wWaitq) == 0 {
		m.writer = true
		m.wHolder = g.ID()
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvRWLock, Res: m.id, File: file, Line: line})
		return
	}
	m.wWaitq = append(m.wWaitq, g)
	g.Block(trace.BlockMutex, m.id, file, line)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvRWLock, Res: m.id, Blocked: true, File: file, Line: line})
}

// Unlock releases the write lock.
func (m *RWMutex) Unlock(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	if !m.writer {
		panic("sync: Unlock of unlocked RWMutex")
	}
	m.writer = false
	m.wHolder = 0
	peer := m.release(g)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvRWUnlock, Res: m.id, Peer: peer, File: file, Line: line})
}

// RLock acquires a read lock.
func (m *RWMutex) RLock(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	if !m.writer && len(m.wWaitq) == 0 {
		m.readers++
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvRLock, Res: m.id, File: file, Line: line})
		return
	}
	m.rWaitq = append(m.rWaitq, g)
	g.Block(trace.BlockRMutex, m.id, file, line)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvRLock, Res: m.id, Blocked: true, File: file, Line: line})
}

// RUnlock releases a read lock.
func (m *RWMutex) RUnlock(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	if m.readers == 0 {
		panic("sync: RUnlock of unlocked RWMutex")
	}
	m.readers--
	var peer trace.GoID
	if m.readers == 0 {
		peer = m.release(g)
	}
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvRUnlock, Res: m.id, Peer: peer, File: file, Line: line})
}

// release hands the lock to waiters: one writer first, else all readers.
// It returns the first woken goroutine (for event attribution).
func (m *RWMutex) release(g *sim.G) trace.GoID {
	if m.writer || m.readers > 0 {
		return 0
	}
	if len(m.wWaitq) > 0 {
		next := m.wWaitq[0]
		m.wWaitq = m.wWaitq[1:]
		m.writer = true
		m.wHolder = next.ID()
		g.Ready(next, m.id, nil)
		return next.ID()
	}
	var first trace.GoID
	for _, r := range m.rWaitq {
		m.readers++
		g.Ready(r, m.id, nil)
		if first == 0 {
			first = r.ID()
		}
	}
	m.rWaitq = nil
	return first
}
