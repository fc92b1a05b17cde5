package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// Mutex is a mutual-exclusion lock of the virtual runtime. Like
// sync.Mutex it is not reentrant and may be unlocked by a goroutine other
// than the locker; unlocking an unlocked mutex panics.
type Mutex struct {
	id     trace.ResID
	locked bool
	holder trace.GoID // informational: last successful locker
	waitq  []*sim.G
}

// NewMutex creates a mutex.
func NewMutex(g *sim.G) *Mutex {
	return &Mutex{id: g.Sched().NewResID()}
}

// ID returns the mutex's resource identifier.
func (m *Mutex) ID() trace.ResID { return m.id }

// Holder returns the goroutine that most recently acquired the lock, or 0.
func (m *Mutex) Holder() trace.GoID {
	if !m.locked {
		return 0
	}
	return m.holder
}

// Lock acquires the mutex, parking until it is free.
func (m *Mutex) Lock(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	m.lockAt(g, file, line)
}

func (m *Mutex) lockAt(g *sim.G, file string, line int) {
	if !m.locked {
		m.locked = true
		m.holder = g.ID()
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvMutexLock, Res: m.id, File: file, Line: line})
		return
	}
	m.waitq = append(m.waitq, g)
	g.Block(trace.BlockMutex, m.id, file, line)
	// The unlocker transferred ownership to us before waking us.
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvMutexLock, Res: m.id, Blocked: true, File: file, Line: line})
}

// TryLock attempts to acquire the mutex without blocking.
func (m *Mutex) TryLock(g *sim.G) bool {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	if m.locked {
		return false
	}
	m.locked = true
	m.holder = g.ID()
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvMutexLock, Res: m.id, File: file, Line: line})
	return true
}

// Unlock releases the mutex, handing it directly to the first waiter.
func (m *Mutex) Unlock(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	m.unlockAt(g, file, line)
}

func (m *Mutex) unlockAt(g *sim.G, file string, line int) {
	if !m.locked {
		panic("sync: unlock of unlocked mutex")
	}
	if len(m.waitq) > 0 {
		next := m.waitq[0]
		m.waitq = m.waitq[1:]
		m.holder = next.ID() // direct handoff keeps the lock held
		g.Ready(next, m.id, nil)
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvMutexUnlock, Res: m.id, Peer: next.ID(), File: file, Line: line})
		return
	}
	m.locked = false
	m.holder = 0
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvMutexUnlock, Res: m.id, File: file, Line: line})
}
