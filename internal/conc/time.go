package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// Duration is a virtual-time duration in nanoseconds (the simulator's time
// unit). Wall-clock names are provided for readable kernels.
type Duration = int64

// Virtual-time unit constants mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Sleep parks the goroutine for d of virtual time. Virtual time advances
// only when nothing is runnable, so a sleeping goroutine never delays a
// runnable one — the discrete-event analogue of time.Sleep.
func Sleep(g *sim.G, d Duration) {
	file, line := sim.Caller(1)
	g.HandlerCat(trace.CatTimer, file, line)
	if d <= 0 {
		return
	}
	s := g.Sched()
	s.AddTimer(s.Now()+d, g)
	g.Block(trace.BlockSleep, 0, file, line)
	s.Emit(&trace.Event{G: g.ID(), Type: trace.EvSleep, Aux: d, File: file, Line: line})
}

// After returns a channel that delivers the virtual wake-up time once d has
// elapsed, the time.After analogue. The delivery goroutine is a
// runtime-internal (system) goroutine excluded from the application tree.
func After(g *sim.G, d Duration) *Chan[int64] {
	ch := NewChan[int64](g, 1)
	g.GoSystem("timer", func(tg *sim.G) {
		Sleep(tg, d)
		ch.TrySend(tg, tg.Sched().Now())
	})
	return ch
}

// Tick returns a channel delivering the virtual time every d, at most n
// times (bounding the system goroutine's life), the time.Tick analogue.
func Tick(g *sim.G, d Duration, n int) *Chan[int64] {
	ch := NewChan[int64](g, 1)
	g.GoSystem("ticker", func(tg *sim.G) {
		for i := 0; i < n; i++ {
			Sleep(tg, d)
			ch.TrySend(tg, tg.Sched().Now())
		}
	})
	return ch
}
