package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// WaitGroup is the sync.WaitGroup analogue.
type WaitGroup struct {
	id    trace.ResID
	count int
	waitq []*sim.G
}

// NewWaitGroup creates a wait group with counter zero.
func NewWaitGroup(g *sim.G) *WaitGroup {
	return &WaitGroup{id: g.Sched().NewResID()}
}

// ID returns the wait group's resource identifier.
func (wg *WaitGroup) ID() trace.ResID { return wg.id }

// Count returns the current counter (for tests and reports).
func (wg *WaitGroup) Count() int { return wg.count }

// Add adds delta to the counter; a counter reaching zero wakes all
// waiters, and a negative counter panics like sync.WaitGroup.
func (wg *WaitGroup) Add(g *sim.G, delta int) {
	file, line := sim.Caller(1)
	wg.addAt(g, delta, file, line)
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done(g *sim.G) {
	file, line := sim.Caller(1)
	wg.addAt(g, -1, file, line)
}

func (wg *WaitGroup) addAt(g *sim.G, delta int, file string, line int) {
	g.Handler(file, line)
	wg.count += delta
	if wg.count < 0 {
		panic("sync: negative WaitGroup counter")
	}
	var first trace.GoID
	if wg.count == 0 && len(wg.waitq) > 0 {
		for _, w := range wg.waitq {
			g.Ready(w, wg.id, nil)
			if first == 0 {
				first = w.ID()
			}
		}
		wg.waitq = nil
	}
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvWgAdd, Res: wg.id, Aux: int64(delta), Peer: first, File: file, Line: line})
}

// Wait parks until the counter reaches zero.
func (wg *WaitGroup) Wait(g *sim.G) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	if wg.count == 0 {
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvWgWait, Res: wg.id, File: file, Line: line})
		return
	}
	wg.waitq = append(wg.waitq, g)
	g.Block(trace.BlockWaitGroup, wg.id, file, line)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvWgWait, Res: wg.id, Blocked: true, File: file, Line: line})
}
