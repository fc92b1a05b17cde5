package ingest

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestParseWireRejectsBadHeader(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"goatect", "GOATECT1\x00\x00"},
		{"garbage", "not a trace at all"},
		{"old-version", "go 1.19 trace\x00\x00\x00"},
		{"future-version", "go 1.99 trace\x00\x00\x00"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parseWire(strings.NewReader(c.input)); err == nil {
				t.Fatal("parseWire accepted invalid input")
			}
		})
	}
}

// TestParseWireTruncationRobustness feeds every prefix of a real capture
// to the parser: truncated input must produce an error or a short
// parse, never a panic or a hang.
func TestParseWireTruncationRobustness(t *testing.T) {
	data, err := os.ReadFile(leakyFixture)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if testing.Short() {
		step = 97
	}
	for n := 0; n < len(data); n += step {
		_, _ = parseWire(bytes.NewReader(data[:n])) // must not panic
	}
}

// TestParseWireCorruptionRobustness flips bytes in the body: corrupt
// input must never panic the parser (errors and garbage events are
// acceptable; memory-unsafe behavior is not).
func TestParseWireCorruptionRobustness(t *testing.T) {
	data, err := os.ReadFile(leakyFixture)
	if err != nil {
		t.Fatal(err)
	}
	header := len("go 1.23 trace\x00\x00\x00")
	for i := header; i < len(data); i += 31 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		w, err := parseWire(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		// A parse that survives corruption must still convert safely,
		// and any trace it returns must be valid.
		if r, err := Parse(bytes.NewReader(mut)); err == nil {
			if verr := r.Trace.Validate(); verr != nil {
				t.Fatalf("flip at %d: Parse returned an invalid trace: %v", i, verr)
			}
		}
		_ = w
	}
}

// TestParseRejectsInvalidConversion pins a 27-byte input whose wire
// format decodes cleanly but converts to a GoStart with no goroutine:
// Parse must report an error instead of returning a trace that fails
// Validate.
func TestParseRejectsInvalidConversion(t *testing.T) {
	input := "go 1.22 trace\x00\x00\x00\b0\x010000.0\x000"
	if len(input) != 27 {
		t.Fatalf("reproducer is %d bytes, want 27", len(input))
	}
	r, err := Parse(strings.NewReader(input))
	if err == nil {
		t.Fatalf("Parse accepted the input; Validate says: %v", r.Trace.Validate())
	}
	if !strings.Contains(err.Error(), "invalid") {
		t.Errorf("err = %v, want the validation failure", err)
	}
}

func TestParseWireTables(t *testing.T) {
	f, err := os.Open(leakyFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := parseWire(f)
	if err != nil {
		t.Fatal(err)
	}
	if w.version != 23 {
		t.Errorf("version = %d, want 23", w.version)
	}
	if w.freq <= 0 {
		t.Errorf("freq = %v, want > 0", w.freq)
	}
	if len(w.events) == 0 {
		t.Fatal("no timed events parsed")
	}
	// The capture must contain resolvable strings and stacks — the
	// block-reason vocabulary at minimum.
	foundReason := false
	for _, g := range w.gens {
		for _, s := range g.strings {
			if s == "chan send" {
				foundReason = true
			}
		}
	}
	if !foundReason {
		t.Error(`string table is missing "chan send" — table parsing is broken`)
	}
	// Every referenced stack resolves to frames with file:line.
	resolved := 0
	for _, ev := range w.events {
		if len(ev.args) == 0 {
			continue
		}
		for _, fr := range w.resolveStack(ev.gen, ev.args[len(ev.args)-1]) {
			if fr.file != "" && fr.line > 0 {
				resolved++
			}
		}
	}
	if resolved == 0 {
		t.Error("no stack frame resolved to a source location")
	}
}
