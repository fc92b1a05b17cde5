// Package conc provides the concurrency primitives of the virtual runtime:
// channels (with select), mutexes, RW mutexes, wait groups, condition
// variables, once, semaphores, timers and a minimal context.
//
// Every operation takes the current goroutine handle (*sim.G) explicitly,
// calls the schedule-perturbation handler at its concurrency-usage point
// (the paper's injected goat.handler()), and emits ECT events carrying the
// call-site source location, whether the operation blocked, and which peer
// goroutine it unblocked — exactly the information the coverage requirements
// (Req1–Req5) and the deadlock analyses consume.
package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// dir is the direction of a pending channel operation.
type dir uint8

const (
	dirSend dir = iota
	dirRecv
)

// waiter is a parked channel operation (the sudog analogue). A waiter
// belonging to a select carries its selectCtx; completing it requires
// winning the select's commit race.
type waiter struct {
	g       *sim.G
	dir     dir
	val     any  // send: value to transmit; recv: filled by the peer
	ok      bool // recv: false when woken by close
	closed  bool // send: the channel closed while parked (panic on wake)
	sel     *selectCtx
	caseIdx int
	done    bool // completed by a peer
}

// stale reports whether the waiter can no longer be completed (its select
// already committed to a different case, or it was already completed).
func (w *waiter) stale() bool {
	if w.done {
		return true
	}
	return w.sel != nil && w.sel.committed && w.sel.winner != w
}

// claim tries to take ownership of the waiter for completion.
func (w *waiter) claim() bool {
	if w.stale() {
		return false
	}
	if w.sel != nil {
		if !w.sel.commit(w) {
			return false
		}
	}
	w.done = true
	return true
}

// chanCore is the untyped channel implementation shared by Chan[T] and
// select.
type chanCore struct {
	id     trace.ResID
	cap    int
	buf    []any
	closed bool
	sendq  []*waiter
	recvq  []*waiter
}

// Chan is a typed channel of the virtual runtime.
type Chan[T any] struct {
	core *chanCore
}

// NewChan creates a channel with the given capacity (0 = unbuffered,
// rendezvous semantics), emitting EvChanMake at the caller's CU.
func NewChan[T any](g *sim.G, capacity int) *Chan[T] {
	file, line := sim.Caller(1)
	if capacity < 0 {
		panic("conc: negative channel capacity")
	}
	c := &Chan[T]{core: &chanCore{id: g.Sched().NewResID(), cap: capacity}}
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvChanMake, Res: c.core.id, Aux: int64(capacity), File: file, Line: line})
	return c
}

// ID returns the channel's resource identifier.
func (c *Chan[T]) ID() trace.ResID { return c.core.id }

// Cap returns the channel capacity.
func (c *Chan[T]) Cap() int { return c.core.cap }

// Len returns the number of buffered elements. The read observes shared
// mutable channel state, so it is a concurrency usage point like any
// other channel op: it runs through the scheduler handler and emits
// EvVarRead on the channel's resource. An untraced length check would be
// invisible to dependence analysis (internal/hb), hiding check-then-act
// races like serving_2137's from dependency-driven exploration.
func (c *Chan[T]) Len(g *sim.G) int {
	file, line := sim.Caller(1)
	g.HandlerCat(trace.CatChannel, file, line)
	n := len(c.core.buf)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvVarRead, Res: c.core.id, Aux: int64(n), File: file, Line: line})
	return n
}

// Closed reports whether the channel has been closed.
func (c *Chan[T]) Closed() bool { return c.core.closed }

// popRecv removes and returns the first completable receive waiter.
func (cc *chanCore) popRecv() *waiter {
	for len(cc.recvq) > 0 {
		w := cc.recvq[0]
		cc.recvq = cc.recvq[1:]
		if w.claim() {
			return w
		}
	}
	return nil
}

// popSend removes and returns the first completable send waiter.
func (cc *chanCore) popSend() *waiter {
	for len(cc.sendq) > 0 {
		w := cc.sendq[0]
		cc.sendq = cc.sendq[1:]
		if w.claim() {
			return w
		}
	}
	return nil
}

// remove deletes a specific waiter from both queues (select cleanup).
func (cc *chanCore) remove(w *waiter) {
	cc.sendq = removeWaiter(cc.sendq, w)
	cc.recvq = removeWaiter(cc.recvq, w)
}

func removeWaiter(q []*waiter, w *waiter) []*waiter {
	for i, x := range q {
		if x == w {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// sendReady reports whether a send would complete without blocking.
// A closed channel counts as ready: executing the send panics, matching Go.
func (cc *chanCore) sendReady() bool {
	if cc.closed {
		return true
	}
	if len(cc.buf) < cc.cap {
		return true
	}
	for _, w := range cc.recvq {
		if !w.stale() {
			return true
		}
	}
	return false
}

// recvReady reports whether a receive would complete without blocking.
func (cc *chanCore) recvReady() bool {
	if len(cc.buf) > 0 || cc.closed {
		return true
	}
	for _, w := range cc.sendq {
		if !w.stale() {
			return true
		}
	}
	return false
}

// send is the core send path. When block is false it returns false instead
// of parking. blocked reports whether the op parked before completing.
// Completed non-blocking sends are marked with Aux=trace.AuxTryOp: the
// predictive analyses must not mistake a TrySend — which can never
// strand — for a send that could have parked.
func (cc *chanCore) send(g *sim.G, v any, block bool, file string, line int) (completed bool) {
	var aux int64
	if !block {
		aux = trace.AuxTryOp
	}
	if cc.closed {
		panic("send on closed channel")
	}
	// A ready receiver takes the value directly (rendezvous).
	if w := cc.popRecv(); w != nil {
		w.val, w.ok = v, true
		g.Ready(w.g, cc.id, nil)
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvChanSend, Res: cc.id, Peer: w.g.ID(), Aux: aux, File: file, Line: line})
		return true
	}
	if len(cc.buf) < cc.cap {
		cc.buf = append(cc.buf, v)
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvChanSend, Res: cc.id, Aux: aux, File: file, Line: line})
		return true
	}
	if !block {
		return false
	}
	w := &waiter{g: g, dir: dirSend, val: v}
	cc.sendq = append(cc.sendq, w)
	g.Block(trace.BlockSend, cc.id, file, line)
	if w.closed {
		panic("send on closed channel")
	}
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvChanSend, Res: cc.id, Blocked: true, File: file, Line: line})
	return true
}

// recv is the core receive path.
func (cc *chanCore) recv(g *sim.G, block bool, file string, line int) (v any, ok bool, completed bool) {
	if len(cc.buf) > 0 {
		v = cc.buf[0]
		cc.buf = cc.buf[1:]
		var peer trace.GoID
		// A parked sender's value moves into the freed buffer slot.
		if w := cc.popSend(); w != nil {
			cc.buf = append(cc.buf, w.val)
			g.Ready(w.g, cc.id, nil)
			peer = w.g.ID()
		}
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvChanRecv, Res: cc.id, Peer: peer, Aux: 1, File: file, Line: line})
		return v, true, true
	}
	if w := cc.popSend(); w != nil {
		v = w.val
		g.Ready(w.g, cc.id, nil)
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvChanRecv, Res: cc.id, Peer: w.g.ID(), Aux: 1, File: file, Line: line})
		return v, true, true
	}
	if cc.closed {
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvChanRecv, Res: cc.id, Aux: 0, File: file, Line: line})
		return nil, false, true
	}
	if !block {
		return nil, false, false
	}
	w := &waiter{g: g, dir: dirRecv}
	cc.recvq = append(cc.recvq, w)
	g.Block(trace.BlockRecv, cc.id, file, line)
	okAux := int64(0)
	if w.ok {
		okAux = 1
	}
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvChanRecv, Res: cc.id, Blocked: true, Aux: okAux, File: file, Line: line})
	return w.val, w.ok, true
}

// closeCore closes the channel and wakes every parked operation.
func (cc *chanCore) closeCore(g *sim.G, file string, line int) {
	if cc.closed {
		panic("close of closed channel")
	}
	cc.closed = true
	var firstPeer trace.GoID
	woken := int64(0)
	for {
		w := cc.popRecv()
		if w == nil {
			break
		}
		w.val, w.ok = nil, false
		g.Ready(w.g, cc.id, nil)
		if firstPeer == 0 {
			firstPeer = w.g.ID()
		}
		woken++
	}
	for {
		w := cc.popSend()
		if w == nil {
			break
		}
		w.closed = true
		g.Ready(w.g, cc.id, nil)
		if firstPeer == 0 {
			firstPeer = w.g.ID()
		}
		woken++
	}
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvChanClose, Res: cc.id, Peer: firstPeer, Aux: woken, File: file, Line: line})
}

// Send transmits v, blocking until a receiver (or buffer space) is ready.
// It panics if the channel is closed, matching native semantics.
func (c *Chan[T]) Send(g *sim.G, v T) {
	file, line := sim.Caller(1)
	g.HandlerCat(trace.CatChannel, file, line)
	c.core.send(g, v, true, file, line)
}

// TrySend attempts a non-blocking send, reporting whether it completed.
func (c *Chan[T]) TrySend(g *sim.G, v T) bool {
	file, line := sim.Caller(1)
	g.HandlerCat(trace.CatChannel, file, line)
	return c.core.send(g, v, false, file, line)
}

// Recv receives a value, blocking until one is available; ok is false when
// the channel is closed and drained.
func (c *Chan[T]) Recv(g *sim.G) (T, bool) {
	file, line := sim.Caller(1)
	g.HandlerCat(trace.CatChannel, file, line)
	v, ok, _ := c.core.recv(g, true, file, line)
	return coerce[T](v), ok
}

// TryRecv attempts a non-blocking receive; done reports whether the
// operation completed (ok distinguishes a real value from a closed channel).
func (c *Chan[T]) TryRecv(g *sim.G) (v T, ok bool, done bool) {
	file, line := sim.Caller(1)
	g.HandlerCat(trace.CatChannel, file, line)
	rv, ok, done := c.core.recv(g, false, file, line)
	return coerce[T](rv), ok, done
}

// Close closes the channel, waking all parked senders (they panic) and
// receivers (they observe ok=false).
func (c *Chan[T]) Close(g *sim.G) {
	file, line := sim.Caller(1)
	g.HandlerCat(trace.CatChannel, file, line)
	c.core.closeCore(g, file, line)
}

// Range receives until the channel closes or body returns false, the
// analogue of `for v := range ch`.
func (c *Chan[T]) Range(g *sim.G, body func(T) bool) {
	for {
		file, line := sim.Caller(1)
		g.HandlerCat(trace.CatChannel, file, line)
		v, ok, _ := c.core.recv(g, true, file, line)
		if !ok {
			return
		}
		if !body(coerce[T](v)) {
			return
		}
	}
}

func coerce[T any](v any) T {
	if v == nil {
		var zero T
		return zero
	}
	return v.(T)
}
