package main

import (
	"fmt"

	"goat/internal/goker"
	"goat/internal/hb"
	"goat/internal/sim"
	"goat/internal/systematic"
	"goat/internal/trace"
)

// The dpor-mix workload runs systematic.ExploreDPOR at D=2 over the
// seven-kernel mix of the repository's systematic-explorer benchmarks:
// five kernels whose bugs the search finds, and two whose bugs need more
// than two yields, so the search exhausts the D=2 space. A pass is the
// mix at dporSeeds successive seeds starting at the workload seed.
const (
	dporMaxYields = 2
	dporMaxRuns   = 2000
	dporSeeds     = 20
)

var dporMix = []struct {
	id    string
	found bool
}{
	{"moby_28462", true},
	{"serving_2137", true},
	{"moby_30408", true},
	{"etcd_7443", true},
	{"cockroach_10214", true},
	{"kubernetes_11298", false},
	{"kubernetes_6632", false},
}

func newDPORMix(seed int64, _ string) (*workload, error) {
	w := &workload{layers: dporLayers}
	pool := trace.NewPool()
	explore := func(id string, found bool, seed int64) (*exploration, error) {
		k, ok := goker.ByID(id)
		if !ok {
			return nil, fmt.Errorf("kernel %s missing", id)
		}
		return &exploration{k: k, found: found, pool: pool,
			cfg: systematic.Config{Seed: seed, MaxYields: dporMaxYields, MaxRuns: dporMaxRuns}}, nil
	}
	for s := int64(0); s < dporSeeds; s++ {
		for _, m := range dporMix {
			e, err := explore(m.id, m.found, seed+s)
			if err != nil {
				return nil, err
			}
			w.pass = append(w.pass, e)
		}
	}
	// The warm-up exploration is the same at every seed.
	e, err := explore(dporMix[0].id, dporMix[0].found, 0)
	w.warm = e
	return w, err
}

// exploration is one DPOR search of one kernel at one seed.
type exploration struct {
	k     goker.Kernel
	found bool
	cfg   systematic.Config
	pool  *trace.Pool // the probe's recorded base runs draw their traces here
}

// check holds the search to the kernel's known verdict and to the
// stats invariant: every executed run is a sleep-set hit, a new
// footprint, or the detecting run.
func (e *exploration) check(f *systematic.Finding, st systematic.DPORStats) (outcome, error) {
	o := outcome{execs: st.Runs}
	if (f != nil) != e.found {
		return o, fmt.Errorf("%s seed %d: found %v, want %v (%v)", e.k.ID, e.cfg.Seed, f != nil, e.found, st)
	}
	detecting := 0
	if f != nil {
		detecting = 1
	}
	if st.Runs != st.SleepHits+st.DistinctFootprints+detecting {
		return o, fmt.Errorf("%s seed %d: stats invariant broken: %v", e.k.ID, e.cfg.Seed, st)
	}
	return o, nil
}

func (e *exploration) run() (outcome, error) {
	return e.check(systematic.ExploreDPOR(e.k.Main, e.cfg))
}

func (e *exploration) traced(tr *tracer) (outcome, error) {
	s := tr.begin("systematic.ExploreDPOR", tr.top)
	f, st := systematic.ExploreDPOR(e.k.Main, e.cfg)
	tr.end(s)
	tr.add("systematic.runs", int64(st.Runs))
	tr.add("systematic.backtracks", int64(st.Backtracks))
	tr.add("systematic.sleep_hits", int64(st.SleepHits))
	return e.check(f, st)
}

// probe records the kernel's base schedule the way the explorer runs it
// (FIFO, no noise, enabledness and op attribution recorded, trace from
// a pool) and builds its Must-mode dependence view, timing both.
func (e *exploration) probe(tr *tracer) error {
	g0, h0 := e.pool.Stats()
	opts := sim.Options{
		Seed: e.cfg.Seed, Pick: sim.PickFIFO, PreemptProb: -1, YieldAt: []int64{},
		RecordRunnable: true, RecordEnabled: true, RecordOps: true,
		ECT: e.pool.Get(),
	}
	s := tr.begin("sim.Run.recorded", tr.top)
	r := sim.Run(opts, e.k.Main)
	tr.end(s)
	if r.Trace == nil {
		return fmt.Errorf("%s: recorded run kept no trace", e.k.ID)
	}
	d := tr.begin("hb.BuildDeps", tr.top)
	deps := hb.BuildDeps(r.Trace, hb.Must)
	tr.end(d)
	if deps.Len() != r.Trace.Len() {
		return fmt.Errorf("%s: dependence view covers %d of %d events", e.k.ID, deps.Len(), r.Trace.Len())
	}
	tr.add("sim.ops", int64(r.Ops))
	tr.add("sim.steps", int64(r.Steps))
	tr.add("sim.events", int64(r.Trace.Len()))
	e.pool.Put(r.Trace)
	g1, h1 := e.pool.Stats()
	tr.add("trace.pool_gets", g1-g0)
	tr.add("trace.pool_hits", h1-h0)
	return nil
}

func dporLayers(tr *tracer) map[string]float64 {
	runs := tr.counted("systematic.runs")
	recorded := tr.meanBusy("sim.Run.recorded")
	return map[string]float64{
		"systematic.runs":            runs,
		"systematic.backtracks":      tr.counted("systematic.backtracks"),
		"systematic.sleep_hit_ratio": ratio(tr.counted("systematic.sleep_hits"), runs),
		"systematic.ms_per_run":      ratio(tr.total("systematic.ExploreDPOR")*1e3, runs),
		"hb.deps_us":                 tr.meanBusy("hb.BuildDeps") / 1e3,
		"sim.recorded_run_us":        recorded / 1e3,
		"sim.self_us":                recorded / 1e3,
		"sim.ns_per_op":              ratio(float64(tr.busy("sim.Run.recorded")), tr.counted("sim.ops")),
		"sim.ops":                    tr.counted("sim.ops"),
		"sim.steps":                  tr.counted("sim.steps"),
		"sim.events":                 tr.counted("sim.events"),
		"trace.pool_hit_ratio":       ratio(tr.counted("trace.pool_hits"), tr.counted("trace.pool_gets")),
	}
}
