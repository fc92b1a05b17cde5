package ingest

import (
	"bytes"
	"testing"

	"goat/internal/detect"
	"goat/internal/hb"
	"goat/internal/profile"
	"goat/internal/race"
)

// FuzzIngestParse holds Parse to its output contract on arbitrary bytes:
// it either returns an error or a run whose trace passes trace.Validate,
// and every analysis that consumes a capture runs on that run without
// panicking. The checked-in corpus (testdata/fuzz/FuzzIngestParse) holds
// both capture fixtures, so mutation starts from real captures, and the
// 27-byte input that once converted to an invalid trace.
func FuzzIngestParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := r.Trace.Validate(); err != nil {
			t.Fatalf("Parse returned a trace that fails Validate: %v", err)
		}
		r.StrandedGoroutines(StrandedOpts{})
		profile.Build(r.Trace, profile.Options{})
		res := r.Result()
		for _, d := range detect.All() {
			d.Detect(res)
		}
		detect.Predict(r.Trace)
		race.Check(r.Trace)
		hb.BuildDeps(r.Trace, hb.Must)
	})
}
