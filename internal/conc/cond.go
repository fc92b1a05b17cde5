package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// Cond is the sync.Cond analogue: a condition variable bound to a Mutex.
type Cond struct {
	id    trace.ResID
	l     *Mutex
	waitq []*sim.G
}

// NewCond creates a condition variable using l as its locker.
func NewCond(g *sim.G, l *Mutex) *Cond {
	return &Cond{id: g.Sched().NewResID(), l: l}
}

// ID returns the condition variable's resource identifier.
func (c *Cond) ID() trace.ResID { return c.id }

// Wait atomically releases the mutex, parks until signalled, then
// re-acquires the mutex before returning. The caller must hold the lock.
func (c *Cond) Wait(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	if !c.l.locked {
		panic("sync: Wait on Cond with unlocked Mutex")
	}
	c.waitq = append(c.waitq, g)
	c.l.unlockAt(g, file, line)
	g.Block(trace.BlockCond, c.id, file, line)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvCondWait, Res: c.id, Blocked: true, File: file, Line: line})
	c.l.lockAt(g, file, line)
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	var peer trace.GoID
	if len(c.waitq) > 0 {
		w := c.waitq[0]
		c.waitq = c.waitq[1:]
		g.Ready(w, c.id, nil)
		peer = w.ID()
	}
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvCondSignal, Res: c.id, Peer: peer, File: file, Line: line})
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	var first trace.GoID
	n := int64(len(c.waitq))
	for _, w := range c.waitq {
		g.Ready(w, c.id, nil)
		if first == 0 {
			first = w.ID()
		}
	}
	c.waitq = nil
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvCondBroadcast, Res: c.id, Peer: first, Aux: n, File: file, Line: line})
}
