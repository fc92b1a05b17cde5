// Package race is the offline happens-before data-race checker — the
// reproduction of the paper's -race option, built on the ECT instead of
// the native race runtime.
//
// The vector-clock core lives in internal/hb (it is shared with the
// predictive blocking detector and the systematic explorer's schedule
// pruning); this package keeps only what is race-specific: the access
// history per Shared cell and the unordered-pair check. See the hb
// package docs for the synchronization edge rules.
//
// Two accesses to the same Shared cell race when at least one is a write
// and neither happens-before the other. The virtual runtime serializes
// execution, so races never manifest as torn memory — they are exactly
// the unordered pairs this checker reports.
package race

import (
	"fmt"
	"sort"

	"goat/internal/hb"
	"goat/internal/trace"
)

// VC is the vector-clock type, re-exported for compatibility; the
// implementation lives in internal/hb.
type VC = hb.VC

// access is one recorded shared-variable access.
type access struct {
	g     trace.GoID
	write bool
	file  string
	line  int
	name  string
	ts    int64
	vc    VC
}

func (a access) kind() string {
	if a.write {
		return "write"
	}
	return "read"
}

// Race is one detected data race: a pair of unordered accesses, at least
// one of them a write.
type Race struct {
	Var    trace.ResID
	Name   string
	First  Conflict
	Second Conflict
}

// Conflict is one side of a race.
type Conflict struct {
	G    trace.GoID
	Kind string // "read" or "write"
	File string
	Line int
	Ts   int64
}

// String renders the race report in the familiar two-sided format.
func (r Race) String() string {
	return fmt.Sprintf("DATA RACE on %q (r%d): %s by g%d at %s:%d (ts %d) unordered with %s by g%d at %s:%d (ts %d)",
		r.Name, r.Var,
		r.First.Kind, r.First.G, r.First.File, r.First.Line, r.First.Ts,
		r.Second.Kind, r.Second.G, r.Second.File, r.Second.Line, r.Second.Ts)
}

// checker accumulates the access history and unordered pairs while an
// hb.Engine drives the clocks.
type checker struct {
	// Access history per variable: the last write plus reads since.
	lastWrite map[trace.ResID]*access
	reads     map[trace.ResID][]access

	races []Race
	seen  map[string]bool
}

func newChecker() *checker {
	return &checker{
		lastWrite: map[trace.ResID]*access{},
		reads:     map[trace.ResID][]access{},
		seen:      map[string]bool{},
	}
}

func (c *checker) report(res trace.ResID, a, b access) {
	key := fmt.Sprintf("%d|%s:%d|%s:%d", res, a.file, a.line, b.file, b.line)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.races = append(c.races, Race{
		Var:    res,
		Name:   b.name,
		First:  Conflict{G: a.g, Kind: a.kind(), File: a.file, Line: a.line, Ts: a.ts},
		Second: Conflict{G: b.g, Kind: b.kind(), File: b.file, Line: b.line, Ts: b.ts},
	})
}

// observe is the hb.Engine observer: it sees every clock-ticking event
// with the acting goroutine's post-edge clock and records Shared-cell
// accesses.
func (c *checker) observe(e *trace.Event, vc hb.VC) {
	switch e.Type {
	case trace.EvVarRead:
		a := access{g: e.G, write: false, file: e.File, line: e.Line, name: e.Str, ts: e.Ts, vc: vc.Clone()}
		if w := c.lastWrite[e.Res]; w != nil && w.g != a.g && !w.vc.Leq(a.vc) {
			c.report(e.Res, *w, a)
		}
		c.reads[e.Res] = append(c.reads[e.Res], a)
	case trace.EvVarWrite:
		a := access{g: e.G, write: true, file: e.File, line: e.Line, name: e.Str, ts: e.Ts, vc: vc.Clone()}
		if w := c.lastWrite[e.Res]; w != nil && w.g != a.g && !w.vc.Leq(a.vc) {
			c.report(e.Res, *w, a)
		}
		for _, r := range c.reads[e.Res] {
			if r.g != a.g && !r.vc.Leq(a.vc) {
				c.report(e.Res, r, a)
			}
		}
		w := a
		c.lastWrite[e.Res] = &w
		c.reads[e.Res] = nil
	}
}

// Check replays the trace and returns every data race on Shared cells,
// ordered by the second access's timestamp. Duplicate pairs over the same
// (variable, first-location, second-location) are reported once.
func Check(tr *trace.Trace) []Race {
	if tr == nil {
		return nil
	}
	c := newChecker()
	en := hb.NewEngine(hb.Full)
	en.Observer = c.observe
	en.EventBatch(tr.Events)
	sort.Slice(c.races, func(i, j int) bool { return c.races[i].Second.Ts < c.races[j].Second.Ts })
	return c.races
}
