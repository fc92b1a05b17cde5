package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"goat/internal/goker"
	"goat/internal/sim"
	"goat/internal/trace"
)

// TestStatsPerGoroutineYieldsPreempts pins the per-goroutine yield and
// preempt counts of -stats on a goker trace: each goroutine's line
// carries its own EvGoSched and EvGoPreempt tallies.
func TestStatsPerGoroutineYieldsPreempts(t *testing.T) {
	k, ok := goker.ByID("etcd_7443")
	if !ok {
		t.Fatal("etcd_7443 not registered")
	}
	tr := goker.Run(k, sim.Options{Seed: 3, Delays: 3, PreemptProb: 0.2}).Trace
	if tr == nil {
		t.Fatal("run kept no trace")
	}
	yields, preempts := map[trace.GoID]int{}, map[trace.GoID]int{}
	for _, e := range tr.Events {
		switch e.Type {
		case trace.EvGoSched:
			yields[e.G]++
		case trace.EvGoPreempt:
			preempts[e.G]++
		}
	}
	counts := tr.CountByType()
	if counts[trace.EvGoSched] == 0 || counts[trace.EvGoPreempt] == 0 {
		t.Fatalf("trace has %d yields and %d preempts; the test needs both", counts[trace.EvGoSched], counts[trace.EvGoPreempt])
	}

	var out bytes.Buffer
	printStats(&out, tr)
	lines := map[trace.GoID]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		var g trace.GoID
		if _, err := fmt.Sscanf(l, "g%d", &g); err == nil {
			lines[g] = l
		}
	}
	gs := tr.Goroutines()
	if len(lines) != len(gs) {
		t.Fatalf("%d goroutine lines, want %d:\n%s", len(lines), len(gs), out.String())
	}
	for _, g := range gs {
		want := fmt.Sprintf("yields=%d preempts=%d", yields[g], preempts[g])
		if !strings.Contains(lines[g], want) {
			t.Errorf("g%d line %q lacks %q", g, lines[g], want)
		}
	}
}
