package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// onceState tracks the three phases of a Once.
type onceState uint8

const (
	onceIdle onceState = iota
	onceRunning
	onceDone
)

// Once is the sync.Once analogue: concurrent callers of Do park until the
// first invocation's function returns.
type Once struct {
	id    trace.ResID
	state onceState
	waitq []*sim.G
}

// NewOnce creates a Once.
func NewOnce(g *sim.G) *Once {
	return &Once{id: g.Sched().NewResID()}
}

// ID returns the once's resource identifier.
func (o *Once) ID() trace.ResID { return o.id }

// Done reports whether the function has completed.
func (o *Once) Done() bool { return o.state == onceDone }

// Do runs f if and only if this is the first call; other callers park
// until f returns.
func (o *Once) Do(g *sim.G, f func()) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	switch o.state {
	case onceDone:
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvOnceDo, Res: o.id, Aux: 0, File: file, Line: line})
		return
	case onceRunning:
		o.waitq = append(o.waitq, g)
		g.Block(trace.BlockSync, o.id, file, line)
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvOnceDo, Res: o.id, Aux: 0, Blocked: true, File: file, Line: line})
		return
	}
	o.state = onceRunning
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvOnceDo, Res: o.id, Aux: 1, File: file, Line: line})
	defer func() {
		o.state = onceDone
		for _, w := range o.waitq {
			g.Ready(w, o.id, nil)
		}
		o.waitq = nil
	}()
	f()
}
