// Command goattrace inspects saved execution concurrency traces (the
// .ect files written by `goat -bug ... -traceout`):
//
//	goattrace -dump trace.ect             # every event
//	goattrace -dump trace.ect -g 3        # one goroutine's projection
//	goattrace -dump trace.ect -cat Chan   # one category
//	goattrace -stats trace.ect            # per-type tallies
//	goattrace -profile trace.ect          # block/mutex/goroutine/cpu top tables
//	goattrace -tree trace.ect             # goroutine tree + Procedure 1
//	goattrace -chrome trace.ect -o t.json # Chrome/Perfetto timeline export
//
// Native runtime/trace captures (go test -trace, runtime/trace.Start)
// are ingested transparently — every command above accepts them — and
// two commands exist specifically for real-binary analysis:
//
//	goattrace -ingest app.trace             # window census + stranded report
//	goattrace -diff old.trace new.trace     # CI gate: newly stranded signatures
//
// The -profile command additionally emits pprof-compatible profiles
// (block, mutex contention, goroutine census — plus CPU when the
// capture carries profiling-clock samples) and folded stacks for
// flamegraph tooling:
//
//	goattrace -profile app.trace -pprof out/    # out/{block,mutex,goroutine,cpu}.pb.gz
//	goattrace -profile app.trace -folded out/   # out/*.folded (flamegraph.pl input)
//
// -serve mounts the same profiles on the live observability endpoint —
// the static-capture counterpart of the campaign CLIs' -obs flag, so
// scrape-based tooling (Prometheus, continuous profilers, `go tool
// pprof http://...`) reads a saved capture like a running process:
//
//	goattrace -serve :7799 app.trace       # /profile/{block,mutex,goroutine,cpu}, /metrics, /healthz
//
// # Exit codes
//
// Every subcommand follows one contract (see exitcode.go):
//
//	0  clean: the command ran and found nothing to flag
//	1  findings: -ingest saw stranded goroutines, -diff saw a regression
//	2  usage or I/O errors (bad flags, unreadable or corrupt traces)
//
// so both analysis commands slot directly into CI gates.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"goat/internal/cu"
	"goat/internal/gtree"
	"goat/internal/ingest"
	prof "goat/internal/profile"
	"goat/internal/trace"
)

func main() {
	var (
		dump    = flag.String("dump", "", "print the events of a trace file")
		stats   = flag.String("stats", "", "print event tallies of a trace file")
		profile = flag.String("profile", "", "print the block/mutex/goroutine/cpu top tables of a trace file")
		tree    = flag.String("tree", "", "print the goroutine tree + deadlock check")
		chrome  = flag.String("chrome", "", "export a trace file as Chrome trace-event JSON (load in ui.perfetto.dev)")
		outPath = flag.String("o", "", "with -chrome: output file (default stdout)")
		visits  = flag.String("visits", "", "print a goatrt native visit log (GOAT_TRACE output)")
		model   = flag.String("model", "", "with -visits: instrumented-source dir for executed-CU coverage")
		pprofD  = flag.String("pprof", "", "with -profile: directory for pprof protobuf profiles")
		foldedD = flag.String("folded", "", "with -profile: directory for folded-stack (flamegraph) text")
		serveAt = flag.String("serve", "", "serve a capture's profiles on this address (observability endpoint; Ctrl-C stops)")
		ingestP = flag.String("ingest", "", "ingest a native runtime/trace capture: window census + stranded report (exit 1 when goroutines are stranded)")
		diffP   = flag.Bool("diff", false, "compare two captures (old new): exit 1 when new strands goroutines old did not")
		workers = flag.Bool("workers", false, "with -ingest/-diff: report long-lived-worker-shaped goroutines too")
		gFilter = flag.Int64("g", 0, "with -dump: restrict to one goroutine")
		cat     = flag.String("cat", "", "with -dump: restrict to one category prefix (Goroutine, Channel, Sync, Select, Timer, Shared)")
		asJSON  = flag.Bool("json", false, "with -dump: newline-delimited JSON instead of text")
	)
	flag.Parse()

	switch {
	case *dump != "":
		withTrace(*dump, func(t *trace.Trace) error {
			out := t
			if *gFilter != 0 {
				out = out.Filter(func(e trace.Event) bool { return e.G == trace.GoID(*gFilter) })
			}
			if *cat != "" {
				out = out.Filter(func(e trace.Event) bool {
					return strings.HasPrefix(trace.CategoryOf(e.Type).String(), *cat)
				})
			}
			if *asJSON {
				return out.EncodeJSON(os.Stdout)
			}
			fmt.Print(out)
			return nil
		})
	case *stats != "":
		withTrace(*stats, func(t *trace.Trace) error {
			printStats(os.Stdout, t)
			return nil
		})
	case *profile != "":
		withCapture(*profile, func(t *trace.Trace, run *ingest.Run) error {
			set := buildProfileSet(t, run)
			fmt.Print(set.Block.Top(8))
			fmt.Print(set.Mutex.Top(8))
			fmt.Print(set.Goroutine.Top(8))
			if set.CPU != nil {
				fmt.Print(set.CPU.Top(8))
			}
			if *pprofD != "" {
				if err := writeProfiles(*pprofD, set, ".pb.gz", (*prof.Profile).WritePprof); err != nil {
					return err
				}
			}
			if *foldedD != "" {
				if err := writeProfiles(*foldedD, set, ".folded", (*prof.Profile).WriteFolded); err != nil {
					return err
				}
			}
			return nil
		})
	case *tree != "":
		withTrace(*tree, func(t *trace.Trace) error {
			gt, err := gtree.Build(t)
			if err != nil {
				return err
			}
			fmt.Print(gt)
			verdict, leaked := gt.DeadlockCheck()
			fmt.Printf("\nDeadlockCheck: %s", verdict)
			if len(leaked) > 0 {
				fmt.Printf(" (%d goroutine(s))", len(leaked))
			}
			fmt.Println()
			return nil
		})
	case *chrome != "":
		withTrace(*chrome, func(t *trace.Trace) error {
			w := os.Stdout
			if *outPath != "" {
				f, err := os.Create(*outPath)
				if err != nil {
					return err
				}
				defer f.Close()
				w = f
			}
			return t.EncodeChrome(w, trace.ChromeOptions{})
		})
	case *serveAt != "":
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "goattrace: -serve needs one capture: goattrace -serve :7799 app.trace")
			os.Exit(exitUsage)
		}
		withCapture(flag.Arg(0), func(t *trace.Trace, run *ingest.Run) error {
			return serveCapture(*serveAt, t, run)
		})
	case *visits != "":
		if err := showVisits(*visits, *model); err != nil {
			fatal(err)
		}
	case *ingestP != "":
		stranded, err := showIngest(*ingestP, *workers)
		if err != nil {
			fatal(err)
		}
		os.Exit(exitForFindings(stranded > 0))
	case *diffP:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "goattrace: -diff needs two captures: old.trace new.trace")
			os.Exit(exitUsage)
		}
		regressed, err := showDiff(flag.Arg(0), flag.Arg(1), *workers)
		if err != nil {
			fatal(err)
		}
		os.Exit(exitForFindings(regressed))
	default:
		flag.Usage()
		os.Exit(exitUsage)
	}
}

// printStats writes the event tallies of t: per type, then per
// goroutine in sorted-ID order (ByGoroutine is a bare map, so ranging
// over it directly would flake). A goroutine's line counts its yields
// (EvGoSched, voluntary or injected) and preempts (EvGoPreempt).
func printStats(w io.Writer, t *trace.Trace) {
	gs := t.Goroutines()
	fmt.Fprintf(w, "%d events, %d goroutines\n\n", t.Len(), len(gs))
	counts := t.CountByType()
	for ty := trace.Type(1); ty.Valid(); ty++ {
		if counts[ty] > 0 {
			fmt.Fprintf(w, "%-14s %6d\n", ty, counts[ty])
		}
	}
	byG := t.ByGoroutine()
	fmt.Fprintln(w)
	for _, g := range gs {
		events := byG[g]
		yields, preempts := 0, 0
		for i := range events {
			switch events[i].Type {
			case trace.EvGoSched:
				yields++
			case trace.EvGoPreempt:
				preempts++
			}
		}
		line := fmt.Sprintf("g%-5d %6d event(s)  yields=%d preempts=%d", g, len(events), yields, preempts)
		if len(events) > 0 {
			last := events[len(events)-1]
			line += fmt.Sprintf("  last=%s", last.Type)
			if last.Type == trace.EvGoBlock {
				line += fmt.Sprintf(" (%s @%s:%d)", last.BlockReason(), last.File, last.Line)
			}
		}
		fmt.Fprintln(w, line)
	}
}

// buildProfileSet folds a trace into its pprof profile set, wiring in
// the wall-clock table and CPU samples when the source was a native
// capture.
func buildProfileSet(t *trace.Trace, run *ingest.Run) *prof.Set {
	opts := prof.Options{}
	if run != nil {
		opts.Wall = run.Wall
		for _, s := range run.CPUSamples {
			cs := prof.CPUSample{G: s.G, Stack: make([]prof.Frame, len(s.Stack))}
			for i, f := range s.Stack {
				cs.Stack[i] = prof.Frame{Func: f.Func, File: f.File, Line: f.Line}
			}
			opts.CPUSamples = append(opts.CPUSamples, cs)
		}
	}
	return prof.Build(t, opts)
}

// writeProfiles writes every profile of a set into dir using the given
// encoder and filename extension.
func writeProfiles(dir string, set *prof.Set, ext string, write func(*prof.Profile, io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, p := range []*prof.Profile{set.Block, set.Mutex, set.Goroutine, set.CPU} {
		if p == nil {
			continue
		}
		path := filepath.Join(dir, string(p.Kind)+ext)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(p, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// showIngest prints the window census and the stranded-goroutine report
// of one native capture, returning the stranded count (the exit-code
// signal).
func showIngest(path string, includeWorkers bool) (int, error) {
	run, err := ingest.ParseFile(path)
	if err != nil {
		return 0, err
	}
	i := run.Info
	fmt.Printf("source: %s (%d events)\n", run.Trace.SourceInfo().Name, run.Trace.Len())
	fmt.Printf("window: %.1fms, %d goroutine(s) (%d created in-window, %d pre-existing), main ended: %v\n",
		float64(i.WallNs)/1e6, i.Goroutines, i.Created, i.Orphans, i.MainEnded)
	if i.DroppedWakes > 0 {
		fmt.Printf("note: %d wake edge(s) had no attributable waker (timers/netpoll)\n", i.DroppedWakes)
	}
	if i.CPUSamples > 0 {
		fmt.Printf("cpu samples: %d (profile with -profile %s -pprof DIR)\n", i.CPUSamples, path)
	}
	stranded := run.StrandedGoroutines(ingest.StrandedOpts{IncludeWorkers: includeWorkers})
	if len(stranded) == 0 {
		fmt.Println("\nstranded goroutines: none")
		return 0, nil
	}
	fmt.Printf("\nstranded goroutines: %d\n", len(stranded))
	for _, s := range stranded {
		fmt.Printf("  %s\n", s)
	}
	return len(stranded), nil
}

// showDiff compares two captures signature-wise and reports whether the
// new one regressed.
func showDiff(oldPath, newPath string, includeWorkers bool) (bool, error) {
	oldRun, err := ingest.ParseFile(oldPath)
	if err != nil {
		return false, fmt.Errorf("%s: %w", oldPath, err)
	}
	newRun, err := ingest.ParseFile(newPath)
	if err != nil {
		return false, fmt.Errorf("%s: %w", newPath, err)
	}
	d := ingest.DiffRuns(oldRun, newRun, ingest.StrandedOpts{IncludeWorkers: includeWorkers})
	fmt.Print(d)
	return d.Regressed(), nil
}

// showVisits aggregates a native visit log; with a model dir it also
// reports executed-CU coverage.
func showVisits(path, modelDir string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	vs, err := cu.ParseVisits(f)
	if err != nil {
		return err
	}
	fmt.Print(cu.RenderVisitStats(cu.StatsOf(vs)))
	if modelDir == "" {
		return nil
	}
	m, err := cu.ExtractDir(modelDir)
	if err != nil {
		return err
	}
	executed, dead, pct := cu.ExecutedCoverage(m, vs)
	fmt.Printf("\nexecuted-CU coverage: %d/%d (%.1f%%)\n", len(executed), m.Len(), pct)
	for _, c := range dead {
		fmt.Printf("  never executed: %s\n", c)
	}
	return nil
}

// withTrace opens a trace of either format — GOATECT or a native
// runtime/trace capture (sniffed by header) — so every inspection
// command works on real-binary captures too.
func withTrace(path string, fn func(*trace.Trace) error) {
	withCapture(path, func(t *trace.Trace, _ *ingest.Run) error { return fn(t) })
}

// withCapture is withTrace for consumers that also want the native-side
// artifacts (wall table, CPU samples); run is nil for GOATECT files.
func withCapture(path string, fn func(*trace.Trace, *ingest.Run) error) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	prefix, err := br.Peek(3)
	if err != nil && err != io.EOF {
		fatal(err)
	}
	var t *trace.Trace
	var run *ingest.Run
	if ingest.SniffNative(prefix) {
		if run, err = ingest.Parse(br); err != nil {
			fatal(err)
		}
		t = run.Trace
	} else {
		if t, err = trace.Decode(br); err != nil {
			fatal(err)
		}
	}
	if err := fn(t, run); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "goattrace:", err)
	os.Exit(exitError)
}
