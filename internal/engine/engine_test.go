package engine_test

import (
	"context"
	"testing"

	"goat/internal/conc"
	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/engine"
	"goat/internal/goker"
	"goat/internal/sim"
	"goat/internal/trace"
)

// cellConfig is a Table IV-style campaign cell: one rare kernel under the
// GoAT detector with a delay bound, stopping at first detection.
func cellConfig(t *testing.T) engine.Config {
	t.Helper()
	k, ok := goker.ByID("kubernetes_6632")
	if !ok {
		t.Fatal("kernel kubernetes_6632 not registered")
	}
	return engine.Config{
		Prog: k.Main,
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: 1 + int64(i), Delays: 2}
		},
		Runs:               200,
		Detector:           detect.Goat{},
		DetectorNeedsTrace: true,
		Pool:               trace.NewPool(),
		StopOnFound:        true,
	}
}

// TestStreamingCellMatchesBuffered holds the engine's streaming cell to
// the classic pipeline written out by hand: each planned run buffers its
// ECT and GoAT's post-hoc Detect classifies it. The engine must stop at
// the same run with the same detection, keep no trace when streaming,
// and keep the detecting run's trace out of the pool under NeedTrace.
func TestStreamingCellMatchesBuffered(t *testing.T) {
	cfg := cellConfig(t)
	ref := -1
	var refDet detect.Detection
	for i := 0; i < cfg.Runs && ref < 0; i++ {
		if refDet = (detect.Goat{}).Detect(sim.Run(cfg.Plan(i, nil), cfg.Prog)); refDet.Found {
			ref = i
		}
	}
	if ref < 0 {
		t.Fatalf("reference loop found nothing in %d runs", cfg.Runs)
	}
	for _, needTrace := range []bool{false, true} {
		cfg := cellConfig(t)
		cfg.NeedTrace = needTrace
		rep, err := engine.Run(context.Background(), cfg)
		if err != nil || rep.Found == nil {
			t.Fatalf("NeedTrace=%v: found %v, err %v", needTrace, rep.Found, err)
		}
		if rep.Found.Index != ref {
			t.Errorf("NeedTrace=%v: detection index %d, buffered reference %d", needTrace, rep.Found.Index, ref)
		}
		if *rep.Found.Detection != refDet {
			t.Errorf("NeedTrace=%v: detection %+v, buffered reference %+v", needTrace, *rep.Found.Detection, refDet)
		}
		if kept := rep.Found.Result.Trace != nil; kept != needTrace {
			t.Errorf("NeedTrace=%v: detecting run kept a trace: %v", needTrace, kept)
		}
	}
}

func TestParallelCellMatchesSequential(t *testing.T) {
	seq, err := engine.Run(context.Background(), cellConfig(t))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	cfg := cellConfig(t)
	cfg.Parallel = 8
	par, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if seq.Found == nil || par.Found == nil {
		t.Fatalf("found: sequential %v, parallel %v", seq.Found, par.Found)
	}
	if seq.Found.Index != par.Found.Index || *seq.Found.Detection != *par.Found.Detection {
		t.Fatalf("parallel cell diverged: seq (%d, %+v) vs par (%d, %+v)",
			seq.Found.Index, *seq.Found.Detection, par.Found.Index, *par.Found.Detection)
	}
	if par.Runs < seq.Runs {
		t.Errorf("parallel ran %d < sequential's %d executions", par.Runs, seq.Runs)
	}
}

// abbaProg takes two locks in both orders (planting a lock-order cycle
// early) and then spins, so a full observation is much longer than an
// early-stopped one.
func abbaProg(spin int) func(*sim.G) {
	return func(g *sim.G) {
		a := conc.NewMutex(g)
		b := conc.NewMutex(g)
		a.Lock(g)
		b.Lock(g)
		b.Unlock(g)
		a.Unlock(g)
		b.Lock(g)
		a.Lock(g)
		a.Unlock(g)
		b.Unlock(g)
		for i := 0; i < spin; i++ {
			g.Yield()
		}
	}
}

func TestEarlyStopShortensDecidedRun(t *testing.T) {
	run := func(early bool) *engine.Report {
		rep, err := engine.Run(context.Background(), engine.Config{
			Prog: abbaProg(500),
			Plan: func(i int, _ *engine.Feedback) sim.Options {
				return sim.Options{Seed: 1}
			},
			Runs:               1,
			Detector:           detect.LockDL{},
			DetectorNeedsTrace: true,
			EarlyStop:          early,
			StopOnFound:        true,
		})
		if err != nil {
			t.Fatalf("early=%v: %v", early, err)
		}
		if rep.Found == nil {
			t.Fatalf("early=%v: cycle not detected", early)
		}
		return rep
	}
	full := run(false)
	fast := run(true)
	for _, rep := range []*engine.Report{full, fast} {
		if rep.Found.Detection.Verdict != "DL" {
			t.Fatalf("verdict %+v, want DL", rep.Found.Detection)
		}
	}
	if fast.Found.Detection.Detail != full.Found.Detection.Detail {
		t.Errorf("early-stop changed the warning: %q vs %q",
			fast.Found.Detection.Detail, full.Found.Detection.Detail)
	}
	r := fast.Found.Result
	if r.Outcome != sim.OutcomeStopped || !r.EarlyStopped {
		t.Errorf("early-stopped run classified %v (EarlyStopped=%v), want STOP", r.Outcome, r.EarlyStopped)
	}
	if r.Steps >= full.Found.Result.Steps {
		t.Errorf("early stop did not shorten the run: %d vs %d steps", r.Steps, full.Found.Result.Steps)
	}
}

func TestOnRunObservesRunsInOrderWithCoverage(t *testing.T) {
	model := cover.NewModel(nil)
	var seen []int
	rep, err := engine.Run(context.Background(), engine.Config{
		Prog: abbaProg(0),
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: int64(i)}
		},
		Runs:     5,
		Coverage: model,
		OnRun: func(fb *engine.Feedback) (bool, error) {
			seen = append(seen, fb.Index)
			if fb.Stats == nil {
				t.Fatal("coverage stats missing")
			}
			if fb.Stats.Covered == 0 {
				t.Fatal("run covered nothing")
			}
			return fb.Index == 2, nil // caller-decided stop
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 3 {
		t.Fatalf("rep.Runs = %d, want 3", rep.Runs)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("observed indices %v", seen)
	}
	if model.Runs() != 3 {
		t.Fatalf("model accumulated %d runs, want 3", model.Runs())
	}
}

// livelockProg never settles: two goroutines trade the scheduler forever,
// so every run exhausts MaxSteps and is classified OutcomeTimeout.
func livelockProg(g *sim.G) {
	g.Go("ping", func(p *sim.G) {
		for {
			p.HandlerHere()
		}
	})
	for {
		g.HandlerHere()
	}
}

// timeoutConfig is a campaign over a livelocked kernel with a tight step
// budget: every execution times out and the detector must classify the
// hang, in sequential and parallel mode alike.
func timeoutConfig(d detect.Detector, needTrace bool) engine.Config {
	return engine.Config{
		Prog: livelockProg,
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: 1 + int64(i), MaxSteps: 300}
		},
		Runs:               16,
		Detector:           d,
		DetectorNeedsTrace: needTrace,
		Pool:               trace.NewPool(),
		StopOnFound:        true,
	}
}

// TestTimeoutClassificationUnderParallel pins OutcomeTimeout handling in
// parallel mode: a campaign whose every run times out must report the
// same detection at the same index as the sequential campaign, and the
// detecting run must carry the TO outcome.
func TestTimeoutClassificationUnderParallel(t *testing.T) {
	seq, err := engine.Run(context.Background(), timeoutConfig(detect.Goat{}, true))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	cfg := timeoutConfig(detect.Goat{}, true)
	cfg.Parallel = 8
	par, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if seq.Found == nil || par.Found == nil {
		t.Fatalf("timeout not detected: sequential %v, parallel %v", seq.Found, par.Found)
	}
	if seq.Found.Result.Outcome != sim.OutcomeTimeout {
		t.Fatalf("sequential detecting run outcome = %v, want TO", seq.Found.Result.Outcome)
	}
	if par.Found.Result.Outcome != sim.OutcomeTimeout {
		t.Fatalf("parallel detecting run outcome = %v, want TO", par.Found.Result.Outcome)
	}
	if seq.Found.Index != par.Found.Index || *seq.Found.Detection != *par.Found.Detection {
		t.Fatalf("parallel timeout classification diverged: seq (%d, %+v) vs par (%d, %+v)",
			seq.Found.Index, *seq.Found.Detection, par.Found.Index, *par.Found.Detection)
	}
}

// TestTimeoutInvisibleToBuiltinUnderParallel: the builtin detector calls a
// livelock HANG but does not count it as a detection, so the campaign
// exhausts its budget — in parallel mode too.
func TestTimeoutInvisibleToBuiltinUnderParallel(t *testing.T) {
	cfg := timeoutConfig(detect.Builtin{}, false)
	cfg.Parallel = 4
	rep, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Found != nil {
		t.Fatalf("builtin counted a livelock as a detection: %+v", rep.Found.Detection)
	}
	if rep.Runs != cfg.Runs {
		t.Fatalf("campaign stopped after %d/%d runs without a detection", rep.Runs, cfg.Runs)
	}
}

// TestCancellationStopsSequentialCampaign: canceling the context mid-
// campaign returns the partial report and ctx.Err() at the next run
// boundary.
func TestCancellationStopsSequentialCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := cellConfig(t)
	cfg.StopOnFound = false
	cfg.Runs = 50
	plan := cfg.Plan
	cfg.Plan = func(i int, prev *engine.Feedback) sim.Options {
		if i == 3 {
			cancel()
		}
		return plan(i, prev)
	}
	rep, err := engine.Run(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Runs == 0 || rep.Runs >= 50 {
		t.Fatalf("partial report runs = %+v, want a strict prefix of the campaign", rep)
	}
}

// TestCancellationStopsParallelCampaign: same contract under Parallel.
func TestCancellationStopsParallelCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cellConfig(t)
	cfg.Parallel = 4
	rep, err := engine.Run(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("canceled parallel campaign returned no report")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := engine.Run(context.Background(), engine.Config{}); err == nil {
		t.Fatal("empty config must error")
	}
	if _, err := engine.Run(context.Background(), engine.Config{
		Prog: func(*sim.G) {},
		Plan: func(int, *engine.Feedback) sim.Options { return sim.Options{} },
	}); err == nil {
		t.Fatal("zero Runs must error")
	}
}
