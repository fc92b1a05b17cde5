package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"goat/internal/trace"
)

// stopAfter is an early-stop sink that asks the world to halt once it
// has seen n events.
type stopAfter struct{ n, seen int }

func (s *stopAfter) Event(trace.Event)   { s.seen++ }
func (s *stopAfter) Close()              {}
func (s *stopAfter) StopRequested() bool { return s.seen >= s.n }

func hostPoolLen() int {
	hostFree.Lock()
	defer hostFree.Unlock()
	return len(hostFree.list)
}

// TestHostLifecycleAcrossOutcomes drives the coroutine handoff through
// every way a run can end, many times over, and then checks that the
// only real goroutines left behind are the hosts parked in the pool: a
// host is re-pooled or stopped whatever the outcome, and never leaks.
func TestHostLifecycleAcrossOutcomes(t *testing.T) {
	startG := runtime.NumGoroutine()
	startPool := hostPoolLen()

	block := func(c *G) { c.Block(trace.BlockRecv, 0, "t.go", 1) }
	cases := []struct {
		want Outcome
		opts func(seed int64) Options
		main func(*G)
	}{
		{OutcomeOK, func(seed int64) Options { return Options{Seed: seed} }, func(g *G) {
			for i := 0; i < 4; i++ {
				g.Go("w", func(c *G) { c.Yield() })
			}
			for i := 0; i < 8; i++ {
				g.Yield()
			}
		}},
		{OutcomeGlobalDeadlock, func(seed int64) Options { return Options{Seed: seed} }, func(g *G) {
			g.Go("stuck", block)
			block(g)
		}},
		{OutcomeLeak, func(seed int64) Options { return Options{Seed: seed, PreemptProb: -1} }, func(g *G) {
			g.Go("stuck", block)
			g.Go("late", func(c *G) {}) // never started when main ends
			g.Yield()
		}},
		{OutcomeCrash, func(seed int64) Options { return Options{Seed: seed, PreemptProb: -1} }, func(g *G) {
			g.Go("stuck", block)
			g.Go("boom", func(c *G) { panic("boom") })
			block(g)
		}},
		{OutcomeStopped, func(seed int64) Options {
			return Options{Seed: seed, PreemptProb: -1, Sinks: []trace.Sink{&stopAfter{n: 3}}}
		}, func(g *G) {
			for i := 0; i < 3; i++ {
				g.Go("w", block)
			}
			for {
				g.Yield()
			}
		}},
		{OutcomeTimeout, func(seed int64) Options { return Options{Seed: seed, MaxSteps: 50} }, func(g *G) {
			g.Go("spin", func(c *G) {
				for {
					c.Yield()
				}
			})
			for {
				g.Yield()
			}
		}},
	}
	const rounds = 200
	for i := 0; i < rounds; i++ {
		for _, c := range cases {
			if r := Run(c.opts(int64(i)), c.main); r.Outcome != c.want {
				t.Fatalf("round %d: outcome = %v, want %v", i, r.Outcome, c.want)
			}
		}
	}

	// One run holds more goroutines at once than the pool can take back:
	// the overflow hosts must be stopped, not left parked.
	wide := hostFreeCap + 64
	r := Run(Options{PreemptProb: -1, MaxSteps: 4 * wide}, func(g *G) {
		for i := 0; i < wide; i++ {
			g.Go("w", block)
		}
		g.Yield()
	})
	if r.Outcome != OutcomeLeak || len(r.Leaked) != wide {
		t.Fatalf("overflow run: outcome = %v with %d leaked, want leak of %d", r.Outcome, len(r.Leaked), wide)
	}
	if n := hostPoolLen(); n != hostFreeCap {
		t.Fatalf("pool = %d hosts after overflow, want the cap %d", n, hostFreeCap)
	}

	// Goroutines left behind by earlier tests may still exit meanwhile,
	// so the count may fall below the bound but never exceed it.
	want := startG + hostPoolLen() - startPool
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		t.Fatalf("real goroutines = %d, want at most %d (start %d + pool growth %d)",
			n, want, startG, hostPoolLen()-startPool)
	}
}

// TestHostsAreReusedAcrossRuns pins that a finished goroutine's host goes
// back to the pool: the next run draws the same parked host instead of
// starting a new coroutine.
func TestHostsAreReusedAcrossRuns(t *testing.T) {
	var first, again *host
	Run(quiet(), func(g *G) { first = g.host })
	Run(quiet(), func(g *G) { again = g.host })
	if first == nil || first != again {
		t.Fatalf("second run got host %p, want the first run's %p back from the pool", again, first)
	}
}

// TestHostPoolSharedByConcurrentRuns runs schedulers on several real
// goroutines at once, all drawing hosts from the one global pool (the
// harness runs campaign rows this way): every run must still produce
// the trace a run alone produces for its seed.
func TestHostPoolSharedByConcurrentRuns(t *testing.T) {
	prog := func(g *G) {
		for i := 0; i < 6; i++ {
			g.Go("w", func(c *G) {
				c.Yield()
				if c.ID()%3 == 0 {
					c.Block(trace.BlockRecv, 0, "t.go", 1)
				}
			})
		}
		g.Yield()
	}
	want := make([]string, 8)
	for seed := range want {
		want[seed] = Run(Options{Seed: int64(seed)}, prog).Trace.String()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				seed := i % len(want)
				if got := Run(Options{Seed: int64(seed)}, prog).Trace.String(); got != want[seed] {
					t.Errorf("seed %d: concurrent run diverged from the solo run", seed)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGoexitEndsOnlySimulatedGoroutine pins that runtime.Goexit in a
// simulated goroutine ends that goroutine, as in Go, and nothing else:
// Run returns, the goroutine's deferred calls run, it is recorded as
// ended with EvGoEnd, and its host is retired rather than pooled, so no
// real goroutine is left behind however many runs call Goexit.
func TestGoexitEndsOnlySimulatedGoroutine(t *testing.T) {
	startG := runtime.NumGoroutine()
	startPool := hostPoolLen()

	const runs = 1000
	deferred := 0
	for i := 0; i < runs; i++ {
		mainExits := i%2 == 1
		r := Run(Options{Seed: int64(i)}, func(g *G) {
			for j := 0; j < 3; j++ {
				g.Go("x", func(c *G) {
					defer func() { deferred++ }()
					c.Yield()
					runtime.Goexit()
				})
			}
			g.Yield()
			if mainExits {
				runtime.Goexit()
			}
		})
		if r.Outcome != OutcomeOK && r.Outcome != OutcomeLeak {
			t.Fatalf("run %d: outcome = %v, want ok or leak", i, r.Outcome)
		}
		if r.Goroutines[0].State != StateDone {
			t.Fatalf("run %d: main state = %v, want done", i, r.Goroutines[0].State)
		}
		ended := map[trace.GoID]bool{}
		for _, e := range r.Trace.Events {
			switch e.Type {
			case trace.EvGoEnd:
				ended[e.G] = true
			case trace.EvGoPanic:
				t.Fatalf("run %d: Goexit recorded as a panic: %v", i, e)
			}
		}
		for _, info := range r.Goroutines {
			if info.State == StateDone && !ended[info.ID] {
				t.Fatalf("run %d: g%d done without an EvGoEnd", i, info.ID)
			}
		}
	}
	if deferred == 0 {
		t.Fatal("no Goexit ran its goroutine's deferred calls")
	}

	want := startG + hostPoolLen() - startPool
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		t.Fatalf("real goroutines = %d after %d Goexit runs, want at most %d", n, runs, want)
	}
}
