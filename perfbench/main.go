// Command perfbench is GoAT's end-to-end and per-layer benchmark. It
// drives the public API of the analysis layers over four closed-loop,
// single-process workloads, checks every item against a known answer,
// and prints one JSON result line.
//
// An item is the unit that is timed and checked: one Table IV cell, one
// generated service kernel, one capture analysis, or one DPOR
// exploration. A workload's items form a fixed pass derived from the
// seed; the run repeats the pass until the time is up and at least
// minItems items have run, so the p99 item time always has ten or more
// samples beyond it.
//
// Without -trace the run carries no wrappers and reports the end-to-end
// metrics, timed in process CPU time (see cpuSeconds). With -trace the first max(pass, minItems) items run once
// untraced and once traced: the traced run wraps the calls into each
// layer's public functions, keeps spans in memory, writes them out when
// it ends, and derives the per-layer metrics and the tracing overhead
// from them. Counts in the traced run repeat exactly at a given seed.
//
// perfbench/run.py builds this program and is the benchmark's command;
// see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minItems is the fewest items a run measures: with it the p99 item
// time rests on at least ten samples beyond it.
const minItems = 1000

// outcome is the work one item did, for the throughput metrics.
type outcome struct {
	execs    int // program executions run or analysed
	requests int // simulated service requests
	bytes    int // capture bytes ingested
}

func (o *outcome) add(p outcome) {
	o.execs += p.execs
	o.requests += p.requests
	o.bytes += p.bytes
}

// item is one timed, checked unit of work. run is the plain call path
// of the end-to-end run; traced does the same work through the
// benchmark's span wrappers; probe takes the extra measurements a layer
// needs outside the item's own span (it may be a no-op).
type item interface {
	run() (outcome, error)
	traced(tr *tracer) (outcome, error)
	probe(tr *tracer) error
}

// workload is one benchmark workload: its pass and how it derives the
// per-layer metrics from a traced run.
type workload struct {
	pass   []item
	warm   item // the untimed warm-up item, the same at every seed
	layers func(tr *tracer) map[string]float64
}

var workloads = map[string]func(seed int64, data string) (*workload, error){
	"table4":        newTable4,
	"service-mix":   newServiceMix,
	"native-ingest": newNativeIngest,
	"dpor-mix":      newDPORMix,
}

func main() {
	name := flag.String("workload", "", "workload: table4, service-mix, native-ingest or dpor-mix")
	seed := flag.Int64("seed", 0, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "set up, report the set-up CPU time and exit")
	data := flag.String("data", "data", "directory of inputs and known answers")
	spans := flag.String("spans", "", "directory the traced run writes its spans to")
	writeTable4 := flag.String("write-table4", "", "regenerate the expected Table IV file and exit")
	flag.Parse()

	if *writeTable4 != "" {
		if err := writeExpectedTable4(*writeTable4); err != nil {
			fail(err)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	w, err := mk(*seed, *data)
	if err != nil {
		fail(err)
	}
	if len(w.pass) == 0 {
		fail(fmt.Errorf("workload %s has an empty pass", *name))
	}
	// The warm-up item is part of set-up: it fills lazy state and pools
	// before anything is timed.
	if _, err := w.warm.run(); err != nil {
		fail(fmt.Errorf("warm-up item: %v", err))
	}
	ready := cpuSeconds()
	if *setupOnly {
		printJSON(map[string]any{"ready_cpu_s": ready})
		return
	}
	var res result
	if *traced != 0 {
		res = traceRun(w, *name, *seed, *spans)
	} else {
		res = timedRun(w, time.Duration(*seconds*float64(time.Second)))
	}
	res.ReadyCPU = ready
	printJSON(res)
}

// result is the program's last output line; run.py adds setup_s.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	ReadyCPU  float64            `json:"ready_cpu_s"` // set-up: CPU time to the first timed item
}

// timedRun is the end-to-end run: passes repeat until the deadline and
// minItems items have passed, every item checked and timed. Metrics are
// in process CPU time (see cpuSeconds); wall-clock figures are printed
// beside them.
func timedRun(w *workload, d time.Duration) result {
	var (
		itemCPU, itemWall []float64 // per item, ms
		passCPU, passWall []float64 // per full pass, s
		work              outcome
		failed            int
		passStart         time.Time
		passCPU0          float64
	)
	start, cpu0 := time.Now(), cpuSeconds()
	for n := 0; ; n++ {
		if n%len(w.pass) == 0 {
			passStart, passCPU0 = time.Now(), cpuSeconds()
		}
		t0, c0 := time.Now(), cpuSeconds()
		o, err := w.pass[n%len(w.pass)].run()
		c1, t1 := cpuSeconds(), time.Now()
		itemCPU = append(itemCPU, (c1-c0)*1e3)
		itemWall = append(itemWall, ms(t1.Sub(t0)))
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "item %d: %v\n", n, err)
		}
		work.add(o)
		if (n+1)%len(w.pass) == 0 {
			passCPU = append(passCPU, cpuSeconds()-passCPU0)
			passWall = append(passWall, time.Since(passStart).Seconds())
		}
		if n+1 >= minItems && len(passCPU) > 0 && time.Since(start) >= d {
			break
		}
	}
	elapsed, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	sort.Float64s(itemCPU)
	sort.Float64s(itemWall)
	m := map[string]float64{
		"pass_cpu_s":      median(passCPU),
		"execs_per_cpu_s": float64(work.execs) / cpu,
		"item_cpu_p50_ms": quantile(itemCPU, 0.50),
		"item_cpu_p99_ms": quantile(itemCPU, 0.99),
		"peak_rss_mb":     peakRSSMB(),
	}
	fmt.Printf("items %d in %d passes over %.2fs wall, %.2fs cpu\n", len(itemCPU), len(passCPU), elapsed, cpu)
	fmt.Printf("item cpu p50 %.4f ms, p99 %.4f ms; wall p50 %.4f ms, p99 %.4f ms (from %d items)\n",
		m["item_cpu_p50_ms"], m["item_cpu_p99_ms"], quantile(itemWall, 0.50), quantile(itemWall, 0.99), len(itemCPU))
	fmt.Printf("pass cpu %.4f s, wall %.4f s (medians)\n", m["pass_cpu_s"], median(passWall))
	fmt.Printf("per cpu second: %.1f execs, %.1f requests, %.3f capture MB; per wall second: %.1f execs, %.1f requests, %.3f capture MB\n",
		m["execs_per_cpu_s"], float64(work.requests)/cpu, float64(work.bytes)/1e6/cpu,
		float64(work.execs)/elapsed, float64(work.requests)/elapsed, float64(work.bytes)/1e6/elapsed)
	return result{Correct: failed == 0, Attempted: len(itemCPU), Failed: failed, Metrics: m}
}

// traceRun is the per-layer run over a fixed item set. Each item runs
// untraced and traced back to back, in alternating order, so both sides
// of the overhead see the same heap and cache state; then its probe.
func traceRun(w *workload, name string, seed int64, spanDir string) result {
	n := len(w.pass)
	if n < minItems {
		n = minItems
	}
	var (
		failed   int
		plain    outcome
		untraced float64 // summed untraced item time, s
	)
	untracedRun := func(i int, it item) {
		t0 := time.Now()
		o, err := it.run()
		untraced += time.Since(t0).Seconds()
		plain.add(o)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "untraced item %d: %v\n", i, err)
		}
	}
	tr := newTracer()
	for i := 0; i < n; i++ {
		it := w.pass[i%len(w.pass)]
		if i%2 == 0 {
			untracedRun(i, it)
		}
		tr.beginItem(i)
		tr.top = tr.begin(itemSpan, -1)
		_, err := it.traced(tr)
		tr.end(tr.top)
		if i%2 == 1 {
			untracedRun(i, it)
		}
		if err == nil {
			tr.top = tr.begin(probeSpan, -1)
			err = it.probe(tr)
			tr.end(tr.top)
		}
		tr.endItem()
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "traced item %d: %v\n", i, err)
		}
	}
	traced := tr.total(itemSpan)

	m := map[string]float64{}
	for _, l := range perLayer {
		m[l] = 0
	}
	for k, v := range w.layers(tr) {
		if _, ok := m[k]; !ok {
			panic("perfbench: undeclared per-layer metric " + k)
		}
		m[k] = v
	}
	m["requests_per_s"] = float64(plain.requests) / untraced
	m["ingest_mb_per_s"] = float64(plain.bytes) / 1e6 / untraced
	m["tracing.overhead_s"] = traced - untraced
	m["tracing.overhead_pct"] = 100 * (traced - untraced) / untraced

	if spanDir != "" {
		path, err := tr.write(spanDir, name, seed)
		if err != nil {
			fail(fmt.Errorf("writing spans: %v", err))
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}
	fmt.Printf("traced %d items: untraced %.4fs, traced %.4fs, overhead %.2f%%\n",
		n, untraced, traced, m["tracing.overhead_pct"])
	for _, l := range perLayer {
		note := ""
		if m[l] == 0 {
			note = "  (" + zeroReason(name, l) + ")"
		}
		fmt.Printf("  %-28s %s%s\n", l, strconv.FormatFloat(m[l], 'g', 8, 64), note)
	}
	return result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}
}

// perLayer is every per-layer metric a traced run reports, in
// BENCHMARK.json order. A metric a workload does not reach reads 0.
var perLayer = []string{
	"sim.self_us", "sim.ns_per_op", "sim.ops", "sim.steps", "sim.events",
	"trace.events_per_batch", "trace.pool_hit_ratio",
	"detect.busy_us", "detect.ns_per_event",
	"engine.self_us", "engine.runs",
	"harness.self_us",
	"kernelgen.generate_us", "kernelgen.check_us",
	"ingest.parse_ms", "ingest.events", "ingest.events_per_s", "ingest.stranded_ms",
	"profile.build_ms", "profile.ns_per_event",
	"systematic.runs", "systematic.backtracks", "systematic.sleep_hit_ratio", "systematic.ms_per_run",
	"hb.deps_us", "sim.recorded_run_us",
	"requests_per_s", "ingest_mb_per_s",
	"tracing.overhead_s", "tracing.overhead_pct",
}

// zeroReason explains a per-layer metric that reads 0 on a workload.
func zeroReason(workload, metric string) string {
	switch {
	case metric == "trace.events_per_batch" && workload == "dpor-mix":
		return "the buffered runs inside ExploreDPOR deliver no sink batches"
	case metric == "trace.pool_hit_ratio" && (workload == "table4" || workload == "service-mix"):
		return "streaming runs buffer no trace, so no pool is drawn from"
	}
	return "not reached by this workload"
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// cpuSeconds is the CPU time the process has used, user plus system.
// The benchmark's times are CPU times: on a shared virtual machine, time
// the hypervisor steals for other tenants stretches wall-clock figures
// severalfold while the process's own CPU time stays put.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail(fmt.Errorf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads the process's peak resident set (VmHWM); off Linux it
// falls back to the Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
