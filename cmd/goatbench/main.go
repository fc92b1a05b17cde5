// Command goatbench regenerates every table and figure of the paper's
// evaluation section from the 68-kernel GoKer suite:
//
//	goatbench -exp table1            # coverage requirement catalogue
//	goatbench -exp table3            # CU/coverage table of listing 1
//	goatbench -exp table4 -freq 1000 # the full detector matrix
//	goatbench -exp fig2              # trials-to-detect histogram (D=0)
//	goatbench -exp fig4              # detections per tool by symptom
//	goatbench -exp fig5              # iteration-count distribution
//	goatbench -exp fig6 -iters 100   # coverage growth case studies
//	goatbench -exp dpor -freq 400    # DPOR/explore equivalence table
//	goatbench -exp all
//
// It also guards against performance regressions: pipe `go test -bench`
// output into a file and compare it against the checked-in baseline
// (see scripts/benchguard.sh):
//
//	goatbench -compare bench.txt                     # fail on >25% slowdown
//	goatbench -compare bench.txt -update-baseline    # refresh the baseline
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"goat/internal/cover"
	"goat/internal/fault"
	"goat/internal/goker"
	"goat/internal/gtree"
	"goat/internal/harness"
	"goat/internal/report"
	"goat/internal/sim"
	"goat/internal/systematic"
	"goat/internal/telemetry"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1|table3|table4|fig2|fig4|fig5|fig6|yields|suite|dpor|all")
		freq      = flag.Int("freq", 1000, "per-(bug,tool) execution budget")
		iters     = flag.Int("iters", 100, "fig6 iterations")
		seed      = flag.Int64("seed", 0, "base RNG seed")
		parallel  = flag.Int("parallel", 4, "concurrent bug rows in the table4 campaign")
		faultSpec = flag.String("faults", "", `fault-injection spec for the table4 campaign, e.g. "stall=2,cancel=1"`)
		budget    = flag.Duration("cellbudget", 0, "wall-clock watchdog per table4 cell (0 = default 30s)")
		retries   = flag.Int("retries", 0, "fresh-seed retries for hung table4 cells (0 = default 1, negative = none)")
		predict   = flag.Bool("predict", false, "add the predictive-detector POTENTIAL column to the table4 campaign")
		bugs      = flag.String("bugs", "", "comma-separated kernel IDs restricting the table4 campaign (default: full suite)")

		telemetryOn = flag.Bool("telemetry", false, "enable the metrics registry and live progress lines (stderr) for the campaign")
		metricsOut  = flag.String("metrics", "", "with -telemetry: dump the final metrics snapshot as JSON to this file")
		flightRec   = flag.String("flightrec", "", `write failed cells' flight-recorder dumps (Chrome JSON) into this directory, e.g. "results"`)

		compare    = flag.String("compare", "", "path to `go test -bench` output to compare against the baseline")
		benchfile  = flag.String("benchfile", "BENCH_baseline.json", "benchmark baseline file")
		tolerance  = flag.Float64("tolerance", 0, "allowed fractional slowdown (0 = baseline's own, default 0.25)")
		updateBase = flag.Bool("update-baseline", false, "rewrite the baseline from the -compare report")
	)
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, *benchfile, *tolerance, *updateBase))
	}

	faults, err := fault.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goatbench: bad -faults spec: %v\n", err)
		os.Exit(1)
	}

	kernels, err := selectKernels(*bugs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goatbench: %v\n", err)
		os.Exit(1)
	}

	if *metricsOut != "" && !*telemetryOn {
		fmt.Fprintln(os.Stderr, "goatbench: -metrics requires -telemetry")
		os.Exit(1)
	}
	if *telemetryOn {
		telemetry.Enable()
		defer writeMetrics(*metricsOut)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==================== %s ====================\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "goatbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	// SIGINT cancels the campaign at the next run boundary; the partial
	// Table IV (canceled cells annotated CANC!) and its CampaignHealth
	// still flush so the operator keeps everything measured so far.
	ctx, cancelCampaign := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancelCampaign()

	var tab *harness.TableIV
	table4 := func() *harness.TableIV {
		if tab == nil {
			cfg := harness.Config{
				MaxExecs:     *freq,
				BaseSeed:     *seed,
				Parallel:     *parallel,
				Faults:       faults,
				CellBudget:   *budget,
				Retries:      *retries,
				Kernels:      kernels,
				FlightRecDir: *flightRec,
				Ctx:          ctx,
			}
			if *predict {
				cfg.Tools = harness.ToolsWithPredict()
			}
			if *telemetryOn {
				nk := len(cfg.Kernels)
				if nk == 0 {
					nk = len(goker.GoKer())
				}
				nt := len(cfg.Tools)
				if nt == 0 {
					nt = len(harness.DefaultTools())
				}
				end := telemetry.Default.Span("campaign", "table4")
				progress := telemetry.NewProgress(nk * nt)
				cfg.OnCell = func(c harness.Cell) { progress.CellDone(c.Found) }
				stop := progress.Start(os.Stderr, 5*time.Second)
				defer stop()
				defer end()
			}
			tab = harness.RunTableIV(cfg)
		}
		return tab
	}

	run("table1", func() error {
		fmt.Println(cover.CatalogueString())
		return nil
	})
	run("table3", func() error { return table3(*seed) })
	run("table4", func() error {
		t := table4()
		fmt.Println(t)
		fmt.Println(report.CampaignHealth(t))
		if ctx.Err() != nil {
			return fmt.Errorf("campaign interrupted — partial results above")
		}
		return nil
	})
	run("fig2", func() error {
		fmt.Println(harness.RunFigure2(table4(), "goat-D0"))
		return nil
	})
	run("fig4", func() error {
		fmt.Println(harness.RunFigure4(table4()))
		return nil
	})
	run("fig5", func() error {
		fmt.Println(harness.RunFigure5(table4()))
		return nil
	})
	run("fig6", func() error { return fig6(*iters, *seed) })
	run("yields", func() error { return minimalYields(*seed) })
	run("dpor", func() error { return dporEquivalence(kernels, *seed, *freq) })
	run("suite", func() error { return suiteComposition() })
}

// selectKernels resolves the -bugs flag to a kernel subset (nil selects
// the full suite).
func selectKernels(spec string) ([]goker.Kernel, error) {
	if spec == "" {
		return nil, nil
	}
	var out []goker.Kernel
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		k, ok := goker.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown bug %q in -bugs (try goat -list)", id)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-bugs selected no kernels")
	}
	return out, nil
}

// writeMetrics dumps the default registry's snapshot as JSON.
func writeMetrics(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goatbench: writing metrics: %v\n", err)
		return
	}
	defer f.Close()
	if err := telemetry.Default.Snapshot().WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "goatbench: writing metrics: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "telemetry: metrics written to %s\n", path)
}

// suiteComposition prints the GoBench-style taxonomy of the 68-kernel
// benchmark: bugs per project broken down by root cause, plus rarity.
func suiteComposition() error {
	causes := []goker.Cause{goker.ResourceDeadlock, goker.CommunicationDeadlock, goker.MixedDeadlock}
	type row struct {
		counts map[goker.Cause]int
		rare   int
		total  int
	}
	rows := map[string]*row{}
	for _, k := range goker.All() {
		r := rows[k.Project]
		if r == nil {
			r = &row{counts: map[goker.Cause]int{}}
			rows[k.Project] = r
		}
		r.counts[k.Cause]++
		r.total++
		if k.Rare {
			r.rare++
		}
	}
	fmt.Printf("%-14s %10s %15s %8s %6s %7s\n", "project", "resource", "communication", "mixed", "rare", "total")
	grand := &row{counts: map[goker.Cause]int{}}
	for _, p := range goker.Projects() {
		r := rows[p]
		fmt.Printf("%-14s %10d %15d %8d %6d %7d\n",
			p, r.counts[causes[0]], r.counts[causes[1]], r.counts[causes[2]], r.rare, r.total)
		for _, c := range causes {
			grand.counts[c] += r.counts[c]
		}
		grand.rare += r.rare
		grand.total += r.total
	}
	fmt.Printf("%-14s %10d %15d %8d %6d %7d\n",
		"total", grand.counts[causes[0]], grand.counts[causes[1]], grand.counts[causes[2]], grand.rare, grand.total)
	return nil
}

// minimalYields quantifies the abstract's claim — "detects these bugs
// with less than three yields" — by systematic exploration + schedule
// minimization over every rare kernel: the table reports the smallest
// yield placement that deterministically reproduces each bug.
func minimalYields(seed int64) error {
	fmt.Printf("%-22s %-8s %-14s %s\n", "bug", "yields", "at ops", "runs to find")
	total, found, underThree := 0, 0, 0
	for _, k := range goker.All() {
		if !k.Rare {
			continue
		}
		total++
		var best *systematic.Finding
		for s := seed; s < seed+5 && best == nil; s++ {
			if f := systematic.Explore(k.Main, systematic.Config{Seed: s, MaxRuns: 3000}); f != nil {
				best = systematic.Minimize(k.Main, f)
			}
		}
		if best == nil {
			fmt.Printf("%-22s %-8s %-14s %s\n", k.ID, "-", "-", "not found (systematic budget)")
			continue
		}
		found++
		if len(best.Yields) < 3 {
			underThree++
		}
		fmt.Printf("%-22s %-8d %-14s %d\n", k.ID, len(best.Yields), fmt.Sprint(best.Yields), best.Runs)
	}
	fmt.Printf("\n%d/%d rare bugs reproduced systematically; %d/%d with fewer than three yields\n",
		found, total, underThree, found)
	return nil
}

// dporEquivalence runs the three systematic searches side by side and
// fails on any disagreement — the CLI form of the equivalence battery in
// internal/systematic, used by CI as a smoke gate over a kernel matrix
// (-bugs) and by hand over the full suite.
func dporEquivalence(kernels []goker.Kernel, seed int64, freq int) error {
	cfg := systematic.Config{Seed: seed, MaxRuns: freq}
	cmp := harness.RunDPORCompare(kernels, cfg)
	fmt.Print(cmp)
	if mm := cmp.Mismatches(); len(mm) > 0 {
		return fmt.Errorf("%d kernel(s) where the searches disagree", len(mm))
	}
	return nil
}

// table3 reproduces the paper's Table III on the listing-1 kernel: the
// dynamically discovered CU coverage across two executions plus the
// accumulated overall model.
func table3(seed int64) error {
	k, ok := goker.ByID("moby_28462")
	if !ok {
		return fmt.Errorf("moby_28462 missing")
	}
	model := cover.NewModel(nil)
	for runIdx := 0; runIdx < 2; runIdx++ {
		r := goker.Run(k, sim.Options{Seed: seed + int64(runIdx), Delays: 2})
		tree, err := gtree.Build(r.Trace)
		if err != nil {
			return err
		}
		st := model.AddRun(tree)
		fmt.Printf("run #%d: outcome=%s covered %d/%d (%.1f%%)\n",
			runIdx+1, r.Outcome, st.Covered, st.Total, st.Percent)
	}
	fmt.Println()
	fmt.Println(report.Table3(model))
	return nil
}

// fig6 reproduces both coverage case studies (etcd_7443 / Fig. 6a and
// kubernetes_11298 / Fig. 6b) for D in {0, 1, 2, 4}.
func fig6(iters int, seed int64) error {
	ds := []int{0, 1, 2, 4}
	for _, bug := range []string{"etcd_7443", "kubernetes_11298"} {
		series, err := harness.RunFigure6(bug, iters, ds, seed)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderFigure6(bug, series, ds))
	}
	return nil
}
