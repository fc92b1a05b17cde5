package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Root span names of the traced run: the item's own work, and the
// measurements a layer needs outside it (kept out of the overhead sum).
const (
	itemSpan  = "item"
	probeSpan = "probe"
)

// span is one recorded interval. Start and end are nanoseconds since
// the tracer's epoch. busy is the time actually spent inside the span:
// end-start for an ordinary span, and the summed length of many short
// calls for an aggregated span (detector callbacks, whose one-span-per-
// call records would outweigh the work they time).
type span struct {
	name       string
	item       int32
	parent     int32
	start, end int64
	busy       int64
}

// count is one named work count of one item (ops, events, runs...),
// recorded at the same boundary as the span that did the work.
type count struct {
	name  string
	item  int32
	value int64
}

// tracer keeps the traced run's spans and counts in memory.
type tracer struct {
	epoch  time.Time
	spans  []span
	counts []count
	totals map[string]int64
	item   int32
	top    int // the current item's root span (item or probe)
	cur    map[string]int64
	kids   map[int32][]int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: map[string]int64{}, cur: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) beginItem(i int) { t.item = int32(i) }

// endItem files the item's counts.
func (t *tracer) endItem() {
	for k, v := range t.cur {
		t.counts = append(t.counts, count{name: k, item: t.item, value: v})
		t.totals[k] += v
		delete(t.cur, k)
	}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, item: t.item, parent: int32(parent), start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.end = t.now()
	s.busy = s.end - s.start
}

// add counts work of the current item.
func (t *tracer) add(name string, v int64) { t.cur[name] += v }

// aggregate files the meter's calls since its last reset as one
// aggregated span under parent, returns the events and batches they
// delivered, and resets the meter.
func (t *tracer) aggregate(name string, parent int, m *meter) (events, batches int64) {
	if m.calls > 0 {
		t.spans = append(t.spans, span{name: name, item: t.item, parent: int32(parent),
			start: m.first, end: m.last, busy: m.busy})
	}
	events, batches = m.events, m.batches
	m.reset()
	return events, batches
}

// children returns the ids of a span's direct children.
func (t *tracer) children(id int) []int32 {
	if t.kids == nil {
		t.kids = map[int32][]int32{}
		for i, s := range t.spans {
			if s.parent >= 0 {
				t.kids[s.parent] = append(t.kids[s.parent], int32(i))
			}
		}
	}
	return t.kids[int32(id)]
}

// self is a span's busy time minus the busy time of its children.
func (t *tracer) self(id int) int64 {
	v := t.spans[id].busy
	for _, c := range t.children(id) {
		v -= t.spans[c].busy
	}
	return v
}

// named returns the ids of every span with the name.
func (t *tracer) named(name string) []int {
	var ids []int
	for i, s := range t.spans {
		if s.name == name {
			ids = append(ids, i)
		}
	}
	return ids
}

// busy sums the busy time of the named spans, in nanoseconds.
func (t *tracer) busy(name string) int64 {
	var v int64
	for _, s := range t.spans {
		if s.name == name {
			v += s.busy
		}
	}
	return v
}

// total is busy(name) in seconds.
func (t *tracer) total(name string) float64 { return float64(t.busy(name)) / 1e9 }

// meanSelf is the mean self time of the named spans, in nanoseconds.
func (t *tracer) meanSelf(name string) float64 {
	ids := t.named(name)
	var v int64
	for _, id := range ids {
		v += t.self(id)
	}
	return ratio(float64(v), float64(len(ids)))
}

// meanBusy is the mean busy time of the named spans, in nanoseconds.
func (t *tracer) meanBusy(name string) float64 {
	return ratio(float64(t.busy(name)), float64(len(t.named(name))))
}

// counted is the run total of a named count.
func (t *tracer) counted(name string) float64 { return float64(t.totals[name]) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write stores the spans and counts as gzip'd CSV under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "kind,name,item,id,parent,start_ns,end_ns,busy_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "span,%s,%d,%d,%d,%d,%d,%d\n", s.name, s.item, i, s.parent, s.start, s.end, s.busy)
	}
	for _, c := range t.counts {
		fmt.Fprintf(w, "count,%s,%d,,,,,%d\n", c.name, c.item, c.value)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
