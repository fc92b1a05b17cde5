package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"goat/internal/detect"
	"goat/internal/engine"
	"goat/internal/goker"
	"goat/internal/harness"
	"goat/internal/sim"
	"goat/internal/trace"
)

// The table4 workload is the paper's Table IV: every GoKer kernel under
// every harness.DefaultTools column at the paper's budget, rows run
// sequentially. A pass is the table at two base seeds of a pool of ten;
// the seed picks the pair. Each cell is checked against the expected
// table stored for its base seed.
const (
	table4Budget   = 1000
	table4Pool     = 10
	table4Stride   = 1000 // base seeds 0, 1000, 2000, ...: disjoint trial seeds at the budget
	table4PerPass  = 2
	table4Expected = "table4_expected.json"
)

// expectedTable4 is the stored answer: the Table IV cell strings of
// every pool base seed, recorded by -write-table4.
type expectedTable4 struct {
	MaxExecs int               `json:"max_execs"`
	Tools    []string          `json:"tools"`
	Tables   []expectedTableIV `json:"tables"`
}

type expectedTableIV struct {
	BaseSeed int64               `json:"base_seed"`
	Rows     map[string][]string `json:"rows"` // bug -> cell strings in Tools order
}

func writeExpectedTable4(path string) error {
	exp := expectedTable4{MaxExecs: table4Budget}
	for _, s := range harness.DefaultTools() {
		exp.Tools = append(exp.Tools, s.Name)
	}
	for j := 0; j < table4Pool; j++ {
		base := int64(j * table4Stride)
		t := harness.RunTableIV(harness.Config{MaxExecs: table4Budget, BaseSeed: base})
		if bad := t.FailedCells(); len(bad) > 0 {
			return fmt.Errorf("base seed %d: %d failed cells, first %s/%s: %s",
				base, len(bad), bad[0].Bug, bad[0].Tool, bad[0].Err)
		}
		tab := expectedTableIV{BaseSeed: base, Rows: map[string][]string{}}
		for _, row := range t.Rows {
			for _, c := range row.Cells {
				tab.Rows[row.Bug] = append(tab.Rows[row.Bug], c.String())
			}
		}
		exp.Tables = append(exp.Tables, tab)
	}
	// One row per line keeps the file readable and its diffs small.
	// Marshalling a []string cannot fail, so its errors are dropped.
	var b bytes.Buffer
	tools, _ := json.Marshal(exp.Tools)
	fmt.Fprintf(&b, "{\"max_execs\": %d, \"tools\": %s, \"tables\": [\n", exp.MaxExecs, tools)
	for i, tab := range exp.Tables {
		fmt.Fprintf(&b, "{\"base_seed\": %d, \"rows\": {\n", tab.BaseSeed)
		bugs := make([]string, 0, len(tab.Rows))
		for bug := range tab.Rows {
			bugs = append(bugs, bug)
		}
		sort.Strings(bugs)
		for j, bug := range bugs {
			cells, _ := json.Marshal(tab.Rows[bug])
			fmt.Fprintf(&b, "  %q: %s%s\n", bug, cells, sep(j, len(bugs)))
		}
		fmt.Fprintf(&b, "}}%s\n", sep(i, len(exp.Tables)))
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func sep(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

func newTable4(seed int64, data string) (*workload, error) {
	b, err := os.ReadFile(filepath.Join(data, table4Expected))
	if err != nil {
		return nil, err
	}
	var exp expectedTable4
	if err := json.Unmarshal(b, &exp); err != nil {
		return nil, fmt.Errorf("%s: %v", table4Expected, err)
	}
	tools := harness.DefaultTools()
	if exp.MaxExecs != table4Budget || len(exp.Tools) != len(tools) || len(exp.Tables) != table4Pool {
		return nil, fmt.Errorf("%s does not describe the benchmark's table", table4Expected)
	}
	for i, s := range tools {
		if exp.Tools[i] != s.Name {
			return nil, fmt.Errorf("%s: column %d is %q, want %q", table4Expected, i, exp.Tools[i], s.Name)
		}
	}
	// The warm-up cell is the same at every seed: the first cell of the
	// first pool table.
	k0 := goker.GoKer()[0]
	warm := exp.Tables[0].Rows[k0.ID]
	if len(warm) == 0 {
		return nil, fmt.Errorf("%s: no row for %s", table4Expected, k0.ID)
	}
	w := &workload{layers: table4Layers,
		warm: &table4Cell{k: k0, spec: tools[0], base: exp.Tables[0].BaseSeed, want: warm[0]}}
	for p := int64(0); p < table4PerPass; p++ {
		tab := exp.Tables[mod(seed+p, table4Pool)]
		for _, k := range goker.GoKer() {
			want, ok := tab.Rows[k.ID]
			if !ok || len(want) != len(tools) {
				return nil, fmt.Errorf("%s: no row for %s at base seed %d", table4Expected, k.ID, tab.BaseSeed)
			}
			for i, s := range tools {
				w.pass = append(w.pass, &table4Cell{k: k, spec: s, base: tab.BaseSeed, want: want[i]})
			}
		}
	}
	return w, nil
}

func mod(a, n int64) int64 { return ((a % n) + n) % n }

// table4Cell is one (bug, tool) cell at one base seed.
type table4Cell struct {
	k    goker.Kernel
	spec harness.Spec
	base int64
	want string
	cell harness.Cell // the traced run's cell, for the replay check
}

func (c *table4Cell) check(cell harness.Cell) (outcome, error) {
	o := outcome{execs: cell.MinExecs}
	if cell.Failed() {
		return o, fmt.Errorf("%s/%s seed %d: cell failed: %s", c.k.ID, c.spec.Name, c.base, cell.Err)
	}
	if got := cell.String(); got != c.want {
		return o, fmt.Errorf("%s/%s seed %d: cell %q, want %q", c.k.ID, c.spec.Name, c.base, got, c.want)
	}
	return o, nil
}

func (c *table4Cell) config() harness.Config {
	return harness.Config{MaxExecs: table4Budget, BaseSeed: c.base}
}

func (c *table4Cell) run() (outcome, error) {
	return c.check(harness.RunCell(c.k, c.spec, c.config()))
}

func (c *table4Cell) traced(tr *tracer) (outcome, error) {
	m := &meter{tr: tr}
	spec := c.spec
	spec.Detector = wrapDetector(spec.Detector, m)
	c.cell = harness.RunCell(c.k, spec, c.config())
	tr.aggregate("detect.cell", tr.top, m)
	return c.check(c.cell)
}

// engineConfig is the campaign harness.RunCell runs for the cell: the
// same plan, budget, detector wiring and pool.
func (c *table4Cell) engineConfig(det detect.Detector) engine.Config {
	return engine.Config{
		Prog: c.k.Main,
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: c.base + int64(i), Delays: c.spec.Delays}
		},
		Runs:               table4Budget,
		Detector:           det,
		DetectorNeedsTrace: c.spec.NeedTrace,
		Pool:               trace.NewPool(),
		StopOnFound:        true,
	}
}

// probe replays the cell through engine.Run twice. The first replay
// carries only the detector wrapper the traced cell carried, so
// harness.RunCell minus it is the harness's own cost per cell. The
// second times each run from Plan to OnRun and the detector inside it;
// the benchmark's own per-run bookkeeping is a span of its own, so it
// does not land in the engine's self time.
func (c *table4Cell) probe(tr *tracer) error {
	m := &meter{tr: tr}
	cfg := c.engineConfig(wrapDetector(c.spec.Detector, m))
	eng := tr.begin("engine.Run", tr.top)
	rep, err := engine.Run(context.Background(), cfg)
	tr.end(eng)
	if err != nil {
		return fmt.Errorf("%s/%s replay: %v", c.k.ID, c.spec.Name, err)
	}
	found := rep.Found != nil
	if rep.Runs != c.cell.MinExecs || found != c.cell.Found {
		return fmt.Errorf("%s/%s replay: %d runs (found %v), the harness cell %d (found %v)",
			c.k.ID, c.spec.Name, rep.Runs, found, c.cell.MinExecs, c.cell.Found)
	}

	m.reset()
	cfg = c.engineConfig(wrapDetector(c.spec.Detector, m))
	plan := cfg.Plan
	eng = tr.begin("engine.Run.spans", tr.top)
	run := -1
	cfg.Plan = func(i int, prev *engine.Feedback) sim.Options {
		run = tr.begin("engine.run", eng)
		return plan(i, prev)
	}
	cfg.OnRun = func(fb *engine.Feedback) (bool, error) {
		tr.end(run)
		book := tr.begin("bench.bookkeeping", eng)
		tr.spans[book].start = tr.spans[run].end
		events, batches := tr.aggregate("detect", run, m)
		tr.add("sim.events", events)
		tr.add("trace.batches", batches)
		tr.add("sim.ops", int64(fb.Result.Ops))
		tr.add("sim.steps", int64(fb.Result.Steps))
		tr.add("engine.runs", 1)
		tr.end(book)
		return false, nil
	}
	rep, err = engine.Run(context.Background(), cfg)
	tr.end(eng)
	if err != nil {
		return fmt.Errorf("%s/%s replay: %v", c.k.ID, c.spec.Name, err)
	}
	if rep.Runs != c.cell.MinExecs {
		return fmt.Errorf("%s/%s spanned replay: %d runs, the harness cell %d", c.k.ID, c.spec.Name, rep.Runs, c.cell.MinExecs)
	}
	return nil
}

func table4Layers(tr *tracer) map[string]float64 {
	runSelf := tr.meanSelf("engine.run")
	runs := float64(len(tr.named("engine.run")))
	return map[string]float64{
		"harness.self_us":        harnessSelf(tr) / 1e3,
		"engine.self_us":         tr.meanSelf("engine.Run.spans") / 1e3,
		"engine.runs":            tr.counted("engine.runs"),
		"sim.self_us":            runSelf / 1e3,
		"sim.ns_per_op":          ratio(runSelf*runs, tr.counted("sim.ops")),
		"sim.ops":                tr.counted("sim.ops"),
		"sim.steps":              tr.counted("sim.steps"),
		"sim.events":             tr.counted("sim.events"),
		"trace.events_per_batch": ratio(tr.counted("sim.events"), tr.counted("trace.batches")),
		"detect.busy_us":         ratio(float64(tr.busy("detect")), runs) / 1e3,
		"detect.ns_per_event":    ratio(float64(tr.busy("detect")), tr.counted("sim.events")),
	}
}

// harnessSelf is the median over cells of harness.RunCell minus the
// cell's light engine.Run replay, in nanoseconds. The harness adds a few
// microseconds to cells that take milliseconds, so a difference of
// means would be noise; the median of per-cell differences is not.
func harnessSelf(tr *tracer) float64 {
	cell := map[int32]int64{}
	for _, id := range tr.named(itemSpan) {
		cell[tr.spans[id].item] = tr.spans[id].busy
	}
	var diffs []float64
	for _, id := range tr.named("engine.Run") {
		s := tr.spans[id]
		diffs = append(diffs, float64(cell[s.item]-s.busy))
	}
	return median(diffs)
}
