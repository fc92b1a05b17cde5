package sim

import (
	"testing"

	"goat/internal/trace"
)

func TestDeepSpawnChain(t *testing.T) {
	const depth = 200
	reached := 0
	var spawn func(g *G, level int)
	spawn = func(g *G, level int) {
		reached = level
		if level == depth {
			return
		}
		g.Go("chain", func(c *G) { spawn(c, level+1) })
	}
	r := Run(Options{PreemptProb: -1}, func(g *G) { spawn(g, 0) })
	if r.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if reached != depth {
		t.Fatalf("chain reached depth %d, want %d", reached, depth)
	}
	if len(r.Goroutines) != depth+1 {
		t.Fatalf("goroutines = %d", len(r.Goroutines))
	}
}

func TestWideFanOut(t *testing.T) {
	const n = 500
	count := 0
	r := Run(Options{Seed: 5}, func(g *G) {
		for i := 0; i < n; i++ {
			g.Go("w", func(c *G) { count++ })
		}
	})
	if r.Outcome != OutcomeOK || count != n {
		t.Fatalf("outcome=%v count=%d", r.Outcome, count)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.yieldProb() != defaultYieldProb {
		t.Errorf("yieldProb = %v", o.yieldProb())
	}
	if o.preemptProb() != defaultPreemptProb {
		t.Errorf("preemptProb = %v", o.preemptProb())
	}
	if o.maxSteps() != defaultMaxSteps || o.drainSteps() != defaultDrainSteps {
		t.Errorf("budgets = %d/%d", o.maxSteps(), o.drainSteps())
	}
	o.PreemptProb = -1
	if o.preemptProb() != 0 {
		t.Errorf("negative preemptProb not disabled: %v", o.preemptProb())
	}
	o.YieldProb = 0.7
	if o.yieldProb() != 0.7 {
		t.Errorf("explicit yieldProb ignored")
	}
}

func TestGoroutineAccessors(t *testing.T) {
	Run(Options{PreemptProb: -1}, func(g *G) {
		if g.ID() != 1 || g.Name() != "main" || g.Parent() != 0 || g.System() {
			t.Errorf("main accessors: id=%d name=%q parent=%d", g.ID(), g.Name(), g.Parent())
		}
		if g.State() != StateRunning {
			t.Errorf("running goroutine state = %v", g.State())
		}
		if g.Sched() == nil {
			t.Error("nil scheduler")
		}
		child := g.Go("kid", func(c *G) {
			if c.Parent() != 1 {
				t.Errorf("child parent = %d", c.Parent())
			}
		})
		if child.ID() != 2 || child.Name() != "kid" {
			t.Errorf("child handle: %v", child)
		}
		if child.String() != "g2(kid)" {
			t.Errorf("String = %q", child.String())
		}
		g.Yield()
	})
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateRunnable: "runnable",
		StateRunning:  "running",
		StateBlocked:  "blocked",
		StateDone:     "done",
		StatePanicked: "panicked",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestMainPanicIsCrash(t *testing.T) {
	r := Run(Options{PreemptProb: -1}, func(g *G) {
		panic("from main")
	})
	if r.Outcome != OutcomeCrash || r.PanicG != 1 {
		t.Fatalf("result = %v", r)
	}
}

func TestPanicValueNonString(t *testing.T) {
	r := Run(Options{PreemptProb: -1}, func(g *G) {
		panic(42)
	})
	if r.Outcome != OutcomeCrash || r.PanicVal != 42 {
		t.Fatalf("result = %v", r)
	}
}

func TestBlockAfterMainEndsStillDrains(t *testing.T) {
	// A goroutine that blocks and is then woken by another during drain.
	order := []string{}
	r := Run(Options{PreemptProb: -1}, func(g *G) {
		var sleeper *G
		g.Go("sleeper", func(c *G) {
			sleeper = c
			c.Block(trace.BlockRecv, 0, "t.go", 1)
			order = append(order, "woken")
		})
		g.Go("waker", func(c *G) {
			c.Yield() // let the sleeper park first
			c.Ready(sleeper, 0, nil)
			order = append(order, "woke")
		})
		// main returns immediately; the pair resolves during drain
	})
	if r.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%v)", r.Outcome, r)
	}
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestTimersDuringDrain(t *testing.T) {
	// Sleeping goroutines must be allowed to finish after main exits
	// (virtual time advances during the drain too).
	done := false
	r := Run(Options{PreemptProb: -1}, func(g *G) {
		g.Go("late", func(c *G) {
			c.s.AddTimer(c.s.Now()+100, c)
			c.Block(trace.BlockSleep, 0, "t.go", 2)
			done = true
		})
		g.Yield()
	})
	if r.Outcome != OutcomeOK || !done {
		t.Fatalf("outcome=%v done=%v", r.Outcome, done)
	}
}

func TestWakeNoteDelivery(t *testing.T) {
	var got any
	Run(Options{PreemptProb: -1}, func(g *G) {
		var sleeper *G
		g.Go("sleeper", func(c *G) {
			sleeper = c
			got = c.Block(trace.BlockRecv, 7, "t.go", 3)
		})
		g.Yield()
		g.Ready(sleeper, 7, "hello")
		g.Yield()
	})
	if got != "hello" {
		t.Fatalf("wake note = %v", got)
	}
}

func TestReadyNonBlockedPanics(t *testing.T) {
	r := Run(Options{PreemptProb: -1}, func(g *G) {
		child := g.Go("c", func(c *G) { c.Yield() })
		g.Ready(child, 0, nil) // child is runnable, not blocked
	})
	if r.Outcome != OutcomeCrash {
		t.Fatalf("Ready on runnable goroutine: outcome = %v", r.Outcome)
	}
}

func TestEmitAfterNoTraceSafe(t *testing.T) {
	r := Run(Options{NoTrace: true, PreemptProb: -1}, func(g *G) {
		g.Sched().Emit(&trace.Event{G: g.ID(), Type: trace.EvUserLog, Str: "x"})
	})
	if r.Outcome != OutcomeOK || r.Trace != nil {
		t.Fatalf("result = %v", r)
	}
}

func TestStepsAccounted(t *testing.T) {
	r := Run(Options{PreemptProb: -1}, func(g *G) {
		for i := 0; i < 10; i++ {
			g.Yield()
		}
	})
	if r.Steps < 10 {
		t.Fatalf("steps = %d, want ≥ 10 dispatches", r.Steps)
	}
}

func TestSpinLoopCannotStarveScheduler(t *testing.T) {
	// A goroutine spinning through CU points with preemption disabled
	// must still be preempted by the slice budget — and the run must
	// terminate via the watchdog instead of hanging forever.
	opts := Options{PreemptProb: -1, MaxSteps: 50}
	r := Run(opts, func(g *G) {
		for {
			g.Handler("spin.go", 1) // a select/default polling loop
		}
	})
	if r.Outcome != OutcomeTimeout {
		t.Fatalf("outcome = %v, want TO", r.Outcome)
	}
	preempts := r.Trace.CountByType()[trace.EvGoPreempt]
	if preempts == 0 {
		t.Fatal("slice budget never preempted the spinner")
	}
}

func TestSpinningLeftoverDrainBounded(t *testing.T) {
	// After main ends, a spinning (never-blocking) leftover goroutine
	// must be cut off by the drain budget even with no preemption noise.
	opts := Options{PreemptProb: -1, DrainSteps: 50}
	r := Run(opts, func(g *G) {
		g.Go("spinner", func(c *G) {
			for {
				c.Handler("spin.go", 2)
			}
		})
	})
	if r.Outcome != OutcomeLeak {
		t.Fatalf("outcome = %v, want PDL", r.Outcome)
	}
}
