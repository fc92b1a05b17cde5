package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"goat/internal/ingest"
	"goat/internal/profile"
)

// The native-ingest workload analyses native runtime/trace captures:
// ingest.Parse, then Run.StrandedGoroutines, then profile.Build. Two are
// the repository's small fixtures (leakypool plants exactly 3 stranded
// senders, cleanpool none); the third is the larger bigpool capture
// recorded by ./capgen, whose strand count is fixed by construction.
// A pass rotates through them in a fixed, weighted order; the seed picks
// the rotation's starting point.
var captureRotation = []struct {
	file   string
	weight int
}{
	{"leakypool.trace", 10},
	{"cleanpool.trace", 10},
	{"bigpool.trace", 1},
}

// knownStrands is each capture's planted strand count. bigpool's comes
// from the answer file capgen writes from its own construction.
func knownStrands(data string) (map[string]int, error) {
	b, err := os.ReadFile(filepath.Join(data, "bigpool.json"))
	if err != nil {
		return nil, err
	}
	var big struct {
		Capture  string `json:"capture"`
		Stranded int    `json:"stranded"`
	}
	if err := json.Unmarshal(b, &big); err != nil {
		return nil, fmt.Errorf("bigpool.json: %v", err)
	}
	return map[string]int{"leakypool.trace": 3, "cleanpool.trace": 0, big.Capture: big.Stranded}, nil
}

func newNativeIngest(seed int64, data string) (*workload, error) {
	known, err := knownStrands(data)
	if err != nil {
		return nil, err
	}
	w := &workload{layers: ingestLayers}
	caps := make([]*capture, len(captureRotation))
	rounds := 0
	for i, c := range captureRotation {
		b, err := os.ReadFile(filepath.Join(data, c.file))
		if err != nil {
			return nil, err
		}
		want, ok := known[c.file]
		if !ok {
			return nil, fmt.Errorf("no known strand count for %s", c.file)
		}
		caps[i] = &capture{name: c.file, data: b, strands: want}
		// Warm up on the largest capture whatever the rotation's phase, so
		// set-up does the same work at every seed.
		if w.warm == nil || len(b) > len(w.warm.(*capture).data) {
			w.warm = caps[i]
		}
		rounds = max(rounds, c.weight)
	}
	// Deal the captures round by round while their weights last, so equal
	// captures are spread apart.
	var rotation []item
	for r := 0; r < rounds; r++ {
		for i, c := range captureRotation {
			if r < c.weight {
				rotation = append(rotation, caps[i])
			}
		}
	}
	start := int(mod(seed, int64(len(rotation))))
	for i := range rotation {
		w.pass = append(w.pass, rotation[(start+i)%len(rotation)])
	}
	return w, nil
}

// capture is one native capture and its planted strand count.
type capture struct {
	name    string
	data    []byte
	strands int
}

func (c *capture) check(st []ingest.Stranded, set *profile.Set) error {
	if len(st) != c.strands {
		return fmt.Errorf("%s: %d stranded goroutines, want %d", c.name, len(st), c.strands)
	}
	if set == nil || set.Goroutine == nil || set.Block == nil {
		return fmt.Errorf("%s: profile set incomplete", c.name)
	}
	var live int64
	for _, s := range set.Goroutine.Samples {
		live += s.Count
	}
	if live < int64(c.strands) {
		return fmt.Errorf("%s: goroutine census %d is below the %d stranded", c.name, live, c.strands)
	}
	return nil
}

func (c *capture) options(r *ingest.Run) profile.Options {
	opts := profile.Options{Wall: r.Wall}
	for _, s := range r.CPUSamples {
		cs := profile.CPUSample{G: s.G, Stack: make([]profile.Frame, len(s.Stack))}
		for i, f := range s.Stack {
			cs.Stack[i] = profile.Frame{Func: f.Func, File: f.File, Line: f.Line}
		}
		opts.CPUSamples = append(opts.CPUSamples, cs)
	}
	return opts
}

func (c *capture) run() (outcome, error) {
	o := outcome{execs: 1, bytes: len(c.data)}
	r, err := ingest.Parse(bytes.NewReader(c.data))
	if err != nil {
		return o, fmt.Errorf("%s: %v", c.name, err)
	}
	st := r.StrandedGoroutines(ingest.StrandedOpts{})
	return o, c.check(st, profile.Build(r.Trace, c.options(r)))
}

func (c *capture) traced(tr *tracer) (outcome, error) {
	o := outcome{execs: 1, bytes: len(c.data)}
	p := tr.begin("ingest.Parse", tr.top)
	r, err := ingest.Parse(bytes.NewReader(c.data))
	tr.end(p)
	if err != nil {
		return o, fmt.Errorf("%s: %v", c.name, err)
	}
	tr.add("ingest.events", int64(len(r.Trace.Events)))
	s := tr.begin("ingest.StrandedGoroutines", tr.top)
	st := r.StrandedGoroutines(ingest.StrandedOpts{})
	tr.end(s)
	b := tr.begin("profile.Build", tr.top)
	set := profile.Build(r.Trace, c.options(r))
	tr.end(b)
	return o, c.check(st, set)
}

func (c *capture) probe(*tracer) error { return nil }

func ingestLayers(tr *tracer) map[string]float64 {
	events := tr.counted("ingest.events")
	return map[string]float64{
		"ingest.parse_ms":      tr.meanBusy("ingest.Parse") / 1e6,
		"ingest.events":        events,
		"ingest.events_per_s":  ratio(events, tr.total("ingest.Parse")),
		"ingest.stranded_ms":   tr.meanBusy("ingest.StrandedGoroutines") / 1e6,
		"profile.build_ms":     tr.meanBusy("profile.Build") / 1e6,
		"profile.ns_per_event": ratio(float64(tr.busy("profile.Build")), events),
	}
}
