package main

import (
	"fmt"
	"math/rand"

	"goat/internal/detect"
	"goat/internal/kernelgen"
	"goat/internal/sim"
	"goat/internal/trace"
)

// The service-mix workload is a stream of generated service kernels,
// each run through sim.Run with the windowed leak detector on the
// batched sink path and checked by the kernel's own oracle plus the
// leak-or-clean expectation — the kernelgen.RunService contract. A pass
// is servicePass kernels drawn from the seed; half are cleaned.
const servicePass = 2000

func newServiceMix(seed int64, _ string) (*workload, error) {
	// The warm-up kernel is the same at every seed: seed 0's first.
	w := &workload{layers: serviceLayers, warm: serviceKernels(0, 1)[0]}
	w.pass = serviceKernels(seed, servicePass)
	return w, nil
}

// serviceKernels draws n kernels from the seed.
func serviceKernels(seed int64, n int) []item {
	rng := rand.New(rand.NewSource(seed))
	var ks []item
	for i := 0; i < n; i++ {
		k := &serviceKernel{dec: make([]byte, kernelgen.DecisionLen)}
		rng.Read(k.dec)
		k.clean = rng.Float64() < 0.5
		k.seed = rng.Int63()
		ks = append(ks, k)
	}
	return ks
}

// serviceKernel is one generated kernel: its decision bytes, whether
// it is cleaned, and its schedule seed.
type serviceKernel struct {
	dec   []byte
	clean bool
	seed  int64
}

func (k *serviceKernel) generate() *kernelgen.ServiceProg {
	p := kernelgen.GenerateService(k.dec)
	if k.clean {
		p = p.Clean()
	}
	return p
}

func (k *serviceKernel) options(p *kernelgen.ServiceProg, s detect.Stream) sim.Options {
	return sim.Options{Seed: k.seed, MaxSteps: p.MinSteps(), NoTrace: true, Sinks: []trace.Sink{s}}
}

// check applies the oracle and the leak-or-clean expectation.
func (k *serviceKernel) check(p *kernelgen.ServiceProg, d detect.Detection) error {
	switch {
	case p.LeakKind == kernelgen.LeakNone && d.Found:
		return fmt.Errorf("%s: clean service flagged %s: %s", p, d.Verdict, d.Detail)
	case p.LeakKind != kernelgen.LeakNone && !d.Found:
		return fmt.Errorf("%s: %d planted strand(s) not reported: %s", p, p.ExpectStrands(), d.Detail)
	}
	return nil
}

func (k *serviceKernel) run() (outcome, error) {
	p := k.generate()
	s := detect.Leak{}.NewStream()
	r := sim.Run(k.options(p, s), p.Main())
	o := outcome{execs: 1, requests: p.Requests}
	if err := p.Check(r); err != nil {
		return o, fmt.Errorf("%s: oracle: %v", p, err)
	}
	return o, k.check(p, s.Finish(r))
}

func (k *serviceKernel) traced(tr *tracer) (outcome, error) {
	g := tr.begin("kernelgen.GenerateService", tr.top)
	p := k.generate()
	tr.end(g)

	m := &meter{tr: tr}
	s := wrapStream(detect.Leak{}.NewStream(), m)
	run := tr.begin("sim.Run", tr.top)
	r := sim.Run(k.options(p, s), p.Main())
	tr.end(run)
	events, batches := tr.aggregate("detect", run, m)
	tr.add("sim.events", events)
	tr.add("trace.batches", batches)
	tr.add("sim.ops", int64(r.Ops))
	tr.add("sim.steps", int64(r.Steps))

	c := tr.begin("kernelgen.Check", tr.top)
	err := p.Check(r)
	tr.end(c)
	o := outcome{execs: 1, requests: p.Requests}
	if err != nil {
		return o, fmt.Errorf("%s: oracle: %v", p, err)
	}
	f := tr.begin("detect.Finish", tr.top)
	d := s.Finish(r)
	tr.end(f)
	return o, k.check(p, d)
}

func (k *serviceKernel) probe(*tracer) error { return nil }

func serviceLayers(tr *tracer) map[string]float64 {
	runs := float64(len(tr.named("sim.Run")))
	runSelf := tr.meanSelf("sim.Run")
	detectNs := float64(tr.busy("detect") + tr.busy("detect.Finish"))
	return map[string]float64{
		"kernelgen.generate_us":  tr.meanBusy("kernelgen.GenerateService") / 1e3,
		"kernelgen.check_us":     tr.meanBusy("kernelgen.Check") / 1e3,
		"sim.self_us":            runSelf / 1e3,
		"sim.ns_per_op":          ratio(runSelf*runs, tr.counted("sim.ops")),
		"sim.ops":                tr.counted("sim.ops"),
		"sim.steps":              tr.counted("sim.steps"),
		"sim.events":             tr.counted("sim.events"),
		"trace.events_per_batch": ratio(tr.counted("sim.events"), tr.counted("trace.batches")),
		"detect.busy_us":         ratio(detectNs, runs) / 1e3,
		"detect.ns_per_event":    ratio(detectNs, tr.counted("sim.events")),
	}
}
