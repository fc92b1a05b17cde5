// Package hb is the shared happens-before layer: a vector-clock engine
// over the ECT event vocabulary that every trace-level analysis builds
// on. It grew out of the clock core that was private to internal/race;
// promoting it lets the race checker, the predictive blocking detector
// and the systematic explorer's schedule pruning share one definition of
// "ordered", so a fixed edge rule fixes every client at once.
//
// The engine is a streaming trace.Sink: feed it the event sequence of an
// execution (live from the scheduler, or replayed from a buffered trace —
// the two are byte-identical views) and it maintains one vector clock per
// goroutine, deriving synchronization edges from the events:
//
//   - program order within each goroutine;
//   - EvGoCreate → the child's first event;
//   - every EvGoUnblock (the waker's clock flows into the woken
//     goroutine), which covers rendezvous channels, mutex handoff,
//     WaitGroup release, Cond signal/broadcast and Once completion;
//   - buffered channels: the k-th send happens-before the k-th receive
//     (FIFO), and a close happens-before every receive that observes it;
//   - mutexes: each release's clock flows into every later acquisition of
//     the same lock (read acquisitions included — a deliberate
//     over-approximation that cannot produce false positives for
//     lock-protected data);
//   - WaitGroup: every counter-decrementing Add flows into each Wait.
//
// Two edge modes are provided. Full applies every rule above — the
// relation a race checker wants, where anything this schedule ordered is
// ordered. Must drops the lock-induced edges (mutex release→acquire and
// lock-kind unblocks): those edges exist only because *this* schedule
// acquired the locks in that order, and a predictive analysis asking
// "could another schedule reverse these?" must not let them mask the
// answer. Must-concurrent events are reorderable candidates; the
// remaining edges (creation, channel, waitgroup, wakeup) are forced by
// the program itself.
//
// Scheduling-noise events (EvGoSched, EvGoPreempt) neither tick clocks
// nor enter the footprint: two executions that differ only in where the
// scheduler yielded have identical clocks and footprints, which is
// exactly what the DPOR explorer's sleep sets key on.
package hb

import (
	"math/bits"
	"sort"

	"goat/internal/trace"
)

// VC is a dense vector clock: entry i is the logical time of the
// goroutine an Engine assigned slot i, and an entry past the end counts
// as 0. Slots are handed out in order of first appearance, so a clock's
// length is bounded by the number of goroutines the engine has seen, not
// by the size of their IDs (native captures carry raw runtime goids).
// Clocks from different engines are not comparable slot by slot; Graph
// compares them by goroutine.
type VC []int64

// Clone returns an independent copy of the clock.
func (v VC) Clone() VC { return append(VC(nil), v...) }

// Join folds other into v (pointwise max), growing v when other covers
// more slots.
func (v *VC) Join(other VC) {
	if n := len(other) - len(*v); n > 0 {
		*v = append(*v, make(VC, n)...)
	}
	w := (*v)[:len(other)]
	for i, t := range other {
		if t > w[i] {
			w[i] = t
		}
	}
}

// Leq reports whether v happens-before-or-equals other (pointwise ≤).
func (v VC) Leq(other VC) bool {
	n := min(len(v), len(other))
	for i, t := range v[:n] {
		if t > other[i] {
			return false
		}
	}
	for _, t := range v[n:] {
		if t > 0 {
			return false
		}
	}
	return true
}

// Concurrent reports that neither clock is ordered before the other.
func (v VC) Concurrent(other VC) bool {
	return !v.Leq(other) && !other.Leq(v)
}

// Mode selects which synchronization edges the engine applies.
type Mode uint8

const (
	// Full applies every edge rule — the relation of the race checker:
	// everything this schedule ordered is ordered.
	Full Mode = iota
	// Must drops the lock-induced edges (mutex release→acquire joins and
	// GoUnblock joins whose resource is a lock): the relation of the
	// predictive analyses, where lock acquisition order is treated as
	// reorderable by another schedule.
	Must
)

// resKind tags a resource by the primitive family its events revealed,
// so Must mode can tell a lock handoff from a channel wakeup.
type resKind uint8

const (
	kindUnknown resKind = iota
	kindLock
	kindChan
	kindCond
	kindWg
)

// Engine is the streaming happens-before engine. The zero value is not
// usable; construct with NewEngine. It implements trace.Sink and
// trace.BatchSink.
//
// Every goroutine gets a dense slot the first time the engine sees it
// (as actor or as peer); slot i's clock is clocks[i], and goids[i] names
// its goroutine. Clock memory therefore grows with the number of
// goroutines, whatever their IDs.
type Engine struct {
	mode   Mode
	slot   map[trace.GoID]int32 // goroutine → slot
	goids  []trace.GoID         // slot → goroutine
	clocks []VC                 // slot → live clock; Reset keeps the backing arrays

	lockVC  map[trace.ResID]VC   // released-lock clocks (Full mode)
	closeVC map[trace.ResID]VC   // channel-close clocks
	sendVC  map[trace.ResID][]VC // FIFO of send clocks per channel
	wgVC    map[trace.ResID]VC   // WaitGroup Done accumulation
	kinds   map[trace.ResID]resKind

	events    int
	footprint uint64

	// cur holds the event Event was handed: the observer borrows a
	// pointer to it, and a pointer to the parameter would move every
	// event to the heap.
	cur trace.Event

	// Observer, when set before streaming, is called for every
	// clock-ticking event after its edges have been applied, with the
	// acting goroutine's current clock. Both are borrowed: observers
	// that keep them must copy the event and Clone the clock. Clocks are
	// indexed by this engine's slots, so an observer may compare the
	// clocks it keeps with each other but with no other engine's.
	Observer func(e *trace.Event, vc VC)
}

// NewEngine returns an empty engine in the given mode.
func NewEngine(mode Mode) *Engine {
	return &Engine{
		mode:    mode,
		slot:    map[trace.GoID]int32{},
		goids:   make([]trace.GoID, 0, clockBlock),
		clocks:  make([]VC, 0, clockBlock),
		lockVC:  map[trace.ResID]VC{},
		closeVC: map[trace.ResID]VC{},
		sendVC:  map[trace.ResID][]VC{},
		wgVC:    map[trace.ResID]VC{},
		kinds:   map[trace.ResID]resKind{},
	}
}

// Reset returns the engine to its initial state (keeping its mode and
// observer), so a campaign can recycle one engine across executions. The
// goroutine clocks' backing arrays are kept for the next execution.
func (en *Engine) Reset() {
	clear(en.slot)
	en.goids = en.goids[:0]
	en.clocks = en.clocks[:0]
	clear(en.lockVC)
	clear(en.closeVC)
	clear(en.sendVC)
	clear(en.wgVC)
	clear(en.kinds)
	en.events = 0
	en.footprint = 0
}

// Events returns how many clock-ticking events the engine has consumed.
func (en *Engine) Events() int { return en.events }

// ClockOf returns the live clock of g (borrowed — Clone to keep).
func (en *Engine) ClockOf(g trace.GoID) VC { return en.clocks[en.slotOf(g)] }

// slotOf returns g's slot, assigning the next one, with a zero clock
// that covers it, the first time g is seen.
func (en *Engine) slotOf(g trace.GoID) int {
	if s, ok := en.slot[g]; ok {
		return int(s)
	}
	s := len(en.goids)
	en.slot[g] = int32(s)
	en.goids = append(en.goids, g)
	if s < cap(en.clocks) {
		en.clocks = en.clocks[:s+1] // a clock left behind by Reset
	} else {
		en.clocks = append(en.clocks, nil)
	}
	if vc := en.clocks[s]; cap(vc) > s {
		vc = vc[:s+1]
		clear(vc)
		en.clocks[s] = vc
	} else {
		// Rounded up to whole blocks, so the joins that follow do not
		// grow a clock one slot at a time, while a trace with thousands
		// of goroutines pays fewer than clockBlock spare words per clock.
		en.clocks[s] = make(VC, s+1, (s+clockBlock)&^(clockBlock-1))
	}
	return s
}

// clockBlock is the capacity unit of a new goroutine clock (a power of
// two): most executions have a handful of goroutines, and their clocks
// then never reallocate.
const clockBlock = 8

// relevant reports whether the event type participates in the
// happens-before relation. Pure scheduling noise does not: a forced or
// natural yield changes where the processor went, not what the program
// synchronized on.
func relevant(t trace.Type) bool {
	return t != trace.EvGoSched && t != trace.EvGoPreempt
}

// markKind records the primitive family a resource was seen used as.
func (en *Engine) markKind(res trace.ResID, k resKind) {
	if res != 0 && en.kinds[res] == kindUnknown {
		en.kinds[res] = k
	}
}

// Event implements trace.Sink: tick the acting goroutine's clock, apply
// the event's synchronization edges, fold the event into the footprint.
func (en *Engine) Event(e trace.Event) {
	en.cur = e
	en.event(&en.cur)
}

// EventBatch implements trace.BatchSink, walking the block in place.
func (en *Engine) EventBatch(evs []trace.Event) {
	for i := range evs {
		en.event(&evs[i])
	}
}

// event is the per-event body shared by Event and EventBatch. It returns
// the acting goroutine's post-edge clock (borrowed), or nil for
// scheduling noise.
func (en *Engine) event(e *trace.Event) VC {
	if !relevant(e.Type) {
		return nil
	}
	// Clocks are addressed through en.clocks[s] throughout: assigning a
	// peer its slot may move the slice of clocks.
	s := en.slotOf(e.G)
	en.clocks[s][s]++

	switch e.Type {
	case trace.EvGoCreate:
		c := en.slotOf(e.Peer)
		child := append(en.clocks[c][:0], en.clocks[s]...)
		if n := c + 1 - len(child); n > 0 {
			child = append(child, make(VC, n)...)
		}
		child[c]++
		en.clocks[c] = child
	case trace.EvGoUnblock:
		if e.Peer != 0 && e.Peer != e.G {
			if en.mode == Must && en.kinds[e.Res] == kindLock {
				break // lock handoff: schedule-induced, not a must edge
			}
			p := en.slotOf(e.Peer)
			en.clocks[p].Join(en.clocks[s])
		}
	case trace.EvGoBlock:
		switch e.BlockReason() {
		case trace.BlockSend:
			// A parked sender's pre-park clock is what the eventual
			// receiver must inherit; its own ChanSend event is only
			// emitted after it wakes, too late for FIFO alignment.
			en.markKind(e.Res, kindChan)
			if e.Res != 0 {
				en.sendVC[e.Res] = append(en.sendVC[e.Res], en.clocks[s].Clone())
			}
		case trace.BlockRecv:
			en.markKind(e.Res, kindChan)
		case trace.BlockMutex, trace.BlockRMutex:
			en.markKind(e.Res, kindLock)
		case trace.BlockCond:
			en.markKind(e.Res, kindCond)
		case trace.BlockWaitGroup:
			en.markKind(e.Res, kindWg)
		}
	case trace.EvChanMake:
		en.markKind(e.Res, kindChan)
	case trace.EvChanSend:
		// Direct handoffs to a parked receiver (Peer != 0) are covered
		// by the EvGoUnblock edge; post-wake sends (Blocked) already
		// pushed their clock at park time.
		en.markKind(e.Res, kindChan)
		if !e.Blocked && e.Peer == 0 && e.Res != 0 {
			en.sendVC[e.Res] = append(en.sendVC[e.Res], en.clocks[s].Clone())
		}
	case trace.EvChanRecv:
		// A receiver that parked got its value by direct delivery and
		// its ordering via EvGoUnblock; only completed-in-place
		// receives consume a queued send clock. Res 0 (identity the
		// producer could not synthesize) derives no resource edge —
		// joining through a shared bucket would fabricate ordering
		// between unrelated channels.
		en.markKind(e.Res, kindChan)
		if e.Res == 0 {
			break
		}
		if !e.Blocked && e.Aux == 1 {
			if q := en.sendVC[e.Res]; len(q) > 0 {
				en.clocks[s].Join(q[0])
				en.sendVC[e.Res] = q[1:]
			}
		}
		if e.Aux == 0 { // receive observed the close
			if cvc, ok := en.closeVC[e.Res]; ok {
				en.clocks[s].Join(cvc)
			}
		}
	case trace.EvSelectCase:
		// Select clauses mirror the plain-channel rules; blocked
		// clauses rely on the EvGoUnblock edge alone.
		en.markKind(e.Res, kindChan)
		if e.Blocked || e.Res == 0 {
			break
		}
		if e.Str == "send" && e.Peer == 0 {
			en.sendVC[e.Res] = append(en.sendVC[e.Res], en.clocks[s].Clone())
		}
		if e.Str == "recv" {
			if q := en.sendVC[e.Res]; len(q) > 0 {
				en.clocks[s].Join(q[0])
				en.sendVC[e.Res] = q[1:]
			}
		}
	case trace.EvChanClose:
		en.markKind(e.Res, kindChan)
		if e.Res != 0 {
			en.closeVC[e.Res] = en.clocks[s].Clone()
		}
	case trace.EvMutexUnlock, trace.EvRWUnlock, trace.EvRUnlock:
		en.markKind(e.Res, kindLock)
		if en.mode == Must || e.Res == 0 {
			break
		}
		acc := en.lockVC[e.Res]
		acc.Join(en.clocks[s])
		en.lockVC[e.Res] = acc
	case trace.EvMutexLock, trace.EvRWLock, trace.EvRLock:
		en.markKind(e.Res, kindLock)
		if en.mode == Must || e.Res == 0 {
			break
		}
		if acc, ok := en.lockVC[e.Res]; ok {
			en.clocks[s].Join(acc)
		}
	case trace.EvWgAdd:
		en.markKind(e.Res, kindWg)
		if e.Aux < 0 && e.Res != 0 {
			acc := en.wgVC[e.Res]
			acc.Join(en.clocks[s])
			en.wgVC[e.Res] = acc
		}
	case trace.EvWgWait:
		en.markKind(e.Res, kindWg)
		if acc, ok := en.wgVC[e.Res]; e.Res != 0 && ok {
			en.clocks[s].Join(acc)
		}
	case trace.EvCondWait, trace.EvCondSignal, trace.EvCondBroadcast:
		en.markKind(e.Res, kindCond)
	}

	vc := en.clocks[s]
	en.events++
	en.footprint += en.eventHash(e, vc)
	if en.Observer != nil {
		en.Observer(e, vc)
	}
	return vc
}

// Close implements trace.Sink.
func (en *Engine) Close() {}

// Footprint returns the running HB-equivalence fingerprint: an
// order-independent hash of every consumed event together with its
// vector clock. Two executions of the same program whose traces are
// interleavings of the same happens-before partial order fold to the
// same footprint, whatever total order the scheduler picked; schedule
// noise (yields, preemptions) is invisible to it. The converse holds
// only up to 64-bit hashing, so clients treat footprint equality as
// "already explored", never as a proof of difference.
func (en *Engine) Footprint() uint64 { return en.footprint }

// Graph is an immutable snapshot of the happens-before state at the end
// of a stream: the final clock of every goroutine plus the footprint.
type Graph struct {
	Mode      Mode
	Slots     []trace.GoID // slot → goroutine, in order of first appearance
	Clocks    []VC         // final clock of Slots[i]'s goroutine, indexed by slot
	Events    int
	Footprint uint64
}

// Snapshot clones the engine state into a Graph.
func (en *Engine) Snapshot() *Graph {
	n := 0
	for _, vc := range en.clocks {
		n += len(vc)
	}
	arena := make([]int64, 0, n)
	g := &Graph{
		Mode:      en.mode,
		Slots:     append([]trace.GoID(nil), en.goids...),
		Clocks:    make([]VC, len(en.clocks)),
		Events:    en.events,
		Footprint: en.footprint,
	}
	for i, vc := range en.clocks {
		g.Clocks[i] = keep(&arena, vc)
	}
	return g
}

// keep appends a copy of v to the arena and returns it with its capacity
// capped, so growing the copy later can never overwrite its neighbour.
// One arena backs many clocks, so a snapshot or a per-event clock table
// costs a few allocations instead of one per clock. When the arena is
// full, keep starts a new chunk twice the size of the last one (up to
// maxChunk words) and leaves the old one to the clocks cut from it:
// nothing is copied twice, and no chunk is sized by a guess at the
// trace's goroutine count.
func keep(arena *[]int64, v VC) VC {
	if cap(*arena)-len(*arena) < len(v) {
		*arena = make([]int64, 0, max(len(v), min(2*cap(*arena), maxChunk), minChunk))
	}
	a := len(*arena)
	*arena = append(*arena, v...)
	return (*arena)[a:len(*arena):len(*arena)]
}

// Arena chunk bounds, in words.
const (
	minChunk = 64
	maxChunk = 1 << 16
)

// Goroutines returns the goroutines of the snapshot in sorted order.
func (g *Graph) Goroutines() []trace.GoID {
	out := append([]trace.GoID(nil), g.Slots...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether two snapshots carry identical clocks, event
// counts and footprints. Clocks are compared by goroutine, not by slot:
// two engines that met the same goroutines in another order are equal.
func (g *Graph) Equal(o *Graph) bool {
	if g.Events != o.Events || g.Footprint != o.Footprint || len(g.Slots) != len(o.Slots) {
		return false
	}
	oslot := make(map[trace.GoID]int, len(o.Slots))
	for i, id := range o.Slots {
		oslot[id] = i
	}
	for i, id := range g.Slots {
		j, ok := oslot[id]
		if !ok {
			return false
		}
		a, b := g.Clocks[i], o.Clocks[j]
		if nonzero(a) != nonzero(b) {
			return false
		}
		for s, t := range a {
			if t == 0 {
				continue
			}
			// Every goroutine of g has a slot in o: the slot sets have
			// equal size and each of g's was found above.
			if k := oslot[g.Slots[s]]; k >= len(b) || b[k] != t {
				return false
			}
		}
	}
	return true
}

// nonzero counts the clock's non-zero entries.
func nonzero(v VC) int {
	n := 0
	for _, t := range v {
		if t != 0 {
			n++
		}
	}
	return n
}

// FromTrace replays a buffered trace through a fresh engine and returns
// the snapshot — the post-hoc entry point, byte-equivalent to streaming.
func FromTrace(tr *trace.Trace, mode Mode) *Graph {
	en := NewEngine(mode)
	if tr != nil {
		en.EventBatch(tr.Events)
	}
	return en.Snapshot()
}

// ---------------------------------------------------------------------
// Footprint hashing.

// mix is the splitmix64 finalizer: a cheap avalanche so that summing
// per-event hashes (the commutative, order-independent fold) does not
// let structured inputs cancel.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Word-chain constants (the xxHash64 primes).
const (
	prime1 = 0x9e3779b185ebca87
	prime2 = 0xc2b2ae3d27d4eb4f
)

// fold absorbs one 64-bit word into a running hash (an xxHash64 round).
func fold(h, w uint64) uint64 {
	return bits.RotateLeft64(h+w*prime2, 31) * prime1
}

// foldStr absorbs a string eight bytes at a time, its length first so
// adjacent strings cannot trade bytes.
func foldStr(h uint64, s string) uint64 {
	h = fold(h, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = fold(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h = fold(h, w)
	}
	return h
}

// eventHash folds one event and its post-edge clock into a single
// order-independent contribution. The logical timestamp is excluded (it
// encodes the total order). The clock is hashed by goroutine ID, not by
// slot, and its entries are summed, skipping zeros: slot order records
// which goroutine the engine met first, so two HB-equivalent traces may
// lay out the same clock in different slots.
func (en *Engine) eventHash(e *trace.Event, vc VC) uint64 {
	h := fold(prime1, uint64(e.G))
	h = fold(h, uint64(e.Peer))
	h = fold(h, uint64(e.Res))
	h = fold(h, uint64(e.Aux))
	kind := uint64(e.Type) | uint64(e.Line)<<9
	if e.Blocked {
		kind |= 1 << 8
	}
	h = fold(h, kind)
	h = foldStr(h, e.File)
	h = foldStr(h, e.Str)
	var cl uint64
	for i, t := range vc {
		if t != 0 {
			cl += mix(uint64(en.goids[i])*0x9e3779b97f4a7c15 ^ uint64(t))
		}
	}
	return mix(h ^ cl)
}
