package conc

import (
	"goat/internal/sim"
	"goat/internal/trace"
)

// Shared is an instrumented shared-memory cell: every Load/Store emits a
// VarRead/VarWrite event so the offline happens-before checker
// (internal/race) can detect data races. This is the reproduction's
// analogue of the paper's -race option: the virtual runtime serializes
// all accesses, so races manifest not as torn reads but as pairs of
// accesses unordered by happens-before.
type Shared[T any] struct {
	id   trace.ResID
	name string
	v    T
}

// NewShared creates a named shared cell with an initial value.
func NewShared[T any](g *sim.G, name string, init T) *Shared[T] {
	return &Shared[T]{id: g.Sched().NewResID(), name: name, v: init}
}

// ID returns the cell's resource identifier.
func (s *Shared[T]) ID() trace.ResID { return s.id }

// Name returns the cell's diagnostic name.
func (s *Shared[T]) Name() string { return s.name }

// Load reads the cell, emitting VarRead at the caller's CU.
func (s *Shared[T]) Load(g *sim.G) T {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvVarRead, Res: s.id, Str: s.name, File: file, Line: line})
	return s.v
}

// Store writes the cell, emitting VarWrite at the caller's CU.
func (s *Shared[T]) Store(g *sim.G, v T) {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvVarWrite, Res: s.id, Str: s.name, File: file, Line: line})
	s.v = v
}

// Update applies f to the current value and stores the result, emitting
// both a read and a write (a classic read-modify-write).
func (s *Shared[T]) Update(g *sim.G, f func(T) T) T {
	file, line := sim.Caller(1)
	g.Handler(file, line)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvVarRead, Res: s.id, Str: s.name, File: file, Line: line})
	v := f(s.v)
	g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvVarWrite, Res: s.id, Str: s.name, File: file, Line: line})
	s.v = v
	return v
}
