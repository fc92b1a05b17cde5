package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// selectCtx coordinates the commit race between the cases of one blocked
// select: the first peer to claim any of its waiters wins; all other
// waiters become stale.
type selectCtx struct {
	committed bool
	winner    *waiter
}

// commit attempts to make w the winning case; it fails if another case
// already won.
func (sc *selectCtx) commit(w *waiter) bool {
	if sc.committed {
		return false
	}
	sc.committed = true
	sc.winner = w
	return true
}

// Case is one communication clause of a Select. Build with CaseSend,
// CaseRecv, or CaseNil.
type Case struct {
	core *chanCore
	dir  dir
	val  any
}

// CaseSend is a `case ch <- v` clause.
func CaseSend[T any](c *Chan[T], v T) Case { return Case{core: c.core, dir: dirSend, val: v} }

// CaseRecv is a `case v := <-ch` clause.
func CaseRecv[T any](c *Chan[T]) Case { return Case{core: c.core, dir: dirRecv} }

// CaseNil is a clause on a nil channel: never ready, exactly like native Go.
func CaseNil() Case { return Case{core: nil} }

// DefaultIdx is the index Select reports when the default case ran.
const DefaultIdx = -1

// ready reports whether the case would complete without blocking.
func (c Case) ready() bool {
	if c.core == nil {
		return false
	}
	if c.dir == dirSend {
		return c.core.sendReady()
	}
	return c.core.recvReady()
}

// execSend completes a ready send without emitting channel events
// (select emits its own); it returns the unblocked peer, if any.
func execSend(g *sim.G, cc *chanCore, v any) trace.GoID {
	if cc.closed {
		panic("send on closed channel")
	}
	if w := cc.popRecv(); w != nil {
		w.val, w.ok = v, true
		g.Ready(w.g, cc.id, nil)
		return w.g.ID()
	}
	if len(cc.buf) < cc.cap {
		cc.buf = append(cc.buf, v)
		return 0
	}
	panic("conc: execSend on non-ready channel")
}

// execRecv completes a ready receive without emitting channel events.
func execRecv(g *sim.G, cc *chanCore) (v any, ok bool, peer trace.GoID) {
	if len(cc.buf) > 0 {
		v = cc.buf[0]
		cc.buf = cc.buf[1:]
		if w := cc.popSend(); w != nil {
			cc.buf = append(cc.buf, w.val)
			g.Ready(w.g, cc.id, nil)
			peer = w.g.ID()
		}
		return v, true, peer
	}
	if w := cc.popSend(); w != nil {
		g.Ready(w.g, cc.id, nil)
		return w.val, true, w.g.ID()
	}
	if cc.closed {
		return nil, false, 0
	}
	panic("conc: execRecv on non-ready channel")
}

// Select executes one clause of a select statement. Among the ready cases
// it picks pseudo-randomly (the runtime's semantics, driven by the
// scheduler's seeded RNG). With no ready case it runs the default when
// hasDefault is true, otherwise it parks until a peer completes one case.
//
// It returns the executed case index (DefaultIdx for default), and for
// receive cases the received value and ok flag.
func Select(g *sim.G, cases []Case, hasDefault bool) (idx int, recv any, ok bool) {
	file, line := sim.Caller(1)
	g.HandlerCat(trace.CatSelect, file, line)
	s := g.Sched()

	var readyIdx []int
	for i, c := range cases {
		if c.ready() {
			readyIdx = append(readyIdx, i)
		}
	}
	if len(readyIdx) > 0 {
		idx = readyIdx[s.Intn(len(readyIdx))]
		c := cases[idx]
		var peer trace.GoID
		dirStr := "recv"
		if c.dir == dirSend {
			dirStr = "send"
			peer = execSend(g, c.core, c.val)
			ok = true
		} else {
			recv, ok, peer = execRecv(g, c.core)
		}
		s.Emit(&trace.Event{G: g.ID(), Type: trace.EvSelect, Aux: int64(idx), File: file, Line: line})
		s.Emit(&trace.Event{G: g.ID(), Type: trace.EvSelectCase, Res: c.core.id, Aux: int64(idx), Peer: peer, Str: dirStr, File: file, Line: line})
		return idx, recv, ok
	}

	if hasDefault {
		s.Emit(&trace.Event{G: g.ID(), Type: trace.EvSelect, Aux: DefaultIdx, File: file, Line: line})
		return DefaultIdx, nil, false
	}

	// Park on every non-nil case.
	sc := &selectCtx{}
	waiters := make([]*waiter, 0, len(cases))
	for i, c := range cases {
		if c.core == nil {
			continue
		}
		w := &waiter{g: g, dir: c.dir, val: c.val, sel: sc, caseIdx: i}
		if c.dir == dirSend {
			c.core.sendq = append(c.core.sendq, w)
		} else {
			c.core.recvq = append(c.core.recvq, w)
		}
		waiters = append(waiters, w)
	}
	g.Block(trace.BlockSelect, 0, file, line)

	// A peer committed exactly one case; unhook the rest.
	winner := sc.winner
	for i, c := range cases {
		if c.core == nil {
			continue
		}
		_ = i
		for _, w := range waiters {
			if w != winner {
				c.core.remove(w)
			}
		}
	}
	if winner == nil {
		panic("conc: select woken without a committed case")
	}
	idx = winner.caseIdx
	c := cases[idx]
	dirStr := "recv"
	if winner.dir == dirSend {
		dirStr = "send"
		if winner.closed {
			panic("send on closed channel")
		}
		ok = true
	} else {
		recv, ok = winner.val, winner.ok
	}
	s.Emit(&trace.Event{G: g.ID(), Type: trace.EvSelect, Aux: int64(idx), Blocked: true, File: file, Line: line})
	s.Emit(&trace.Event{G: g.ID(), Type: trace.EvSelectCase, Res: c.core.id, Aux: int64(idx), Blocked: true, Str: dirStr, File: file, Line: line})
	return idx, recv, ok
}
