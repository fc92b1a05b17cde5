package main

import (
	"strings"
	"testing"
)

// args bundles validateFlags' inputs so each case reads as the command
// line it stands for.
type args struct {
	bug       string
	tool      string
	minimize  bool
	traceOut  string
	htmlOut   string
	timeline  string
	faultSpec string
	predict   bool
	dpor      bool
}

func validate(a args) error {
	if a.tool == "" {
		a.tool = "goat"
	}
	_, err := validateFlags(a.bug, a.tool, a.minimize, a.traceOut, a.htmlOut, a.timeline, a.faultSpec, a.predict, a.dpor)
	return err
}

func TestValidateFlagsRejectsExclusiveModes(t *testing.T) {
	cases := []struct {
		name    string
		a       args
		wantErr string // substring of the usage error
	}{
		{"predict+dpor", args{bug: "b", predict: true, dpor: true}, "-predict and -dpor are exclusive"},
		{"predict+dpor+minimize", args{bug: "b", predict: true, dpor: true, minimize: true}, "-predict and -dpor are exclusive"},
		{"predict+minimize", args{bug: "b", predict: true, minimize: true}, "-predict cannot be combined"},
		{"predict+faults", args{bug: "b", predict: true, faultSpec: "stall=1"}, "-predict cannot be combined"},
		{"dpor-without-minimize", args{bug: "b", dpor: true}, "-dpor requires -minimize"},
		{"minimize-without-bug", args{minimize: true}, "-minimize requires -bug"},
		{"predict-without-bug", args{predict: true}, "-predict requires -bug"},
		{"traceout-without-bug", args{traceOut: "t.ect"}, "-traceout requires -bug"},
		{"faults-without-bug", args{faultSpec: "stall=1"}, "-faults requires -bug"},
		{"minimize+faults", args{bug: "b", minimize: true, faultSpec: "stall=1"}, "cannot be combined with -minimize"},
		{"unknown-tool", args{bug: "b", tool: "frob"}, "goat|builtin|lockdl|goleak"},
		{"bad-fault-spec", args{bug: "b", faultSpec: "bogus"}, "bad -faults spec"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validate(c.a)
			if err == nil {
				t.Fatalf("%+v accepted, want usage error containing %q", c.a, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %q, want it to contain %q", err, c.wantErr)
			}
		})
	}
}

func TestValidateFlagsAcceptsValidModes(t *testing.T) {
	cases := []struct {
		name string
		a    args
	}{
		{"bare-bug", args{bug: "b"}},
		{"predict", args{bug: "b", predict: true}},
		{"minimize", args{bug: "b", minimize: true}},
		{"minimize+dpor", args{bug: "b", minimize: true, dpor: true}},
		{"faults", args{bug: "b", faultSpec: "stall=2,panic=1"}},
		{"every-tool-goleak", args{bug: "b", tool: "goleak"}},
		{"every-tool-lockdl", args{bug: "b", tool: "lockdl"}},
		{"every-tool-builtin", args{bug: "b", tool: "builtin"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := validate(c.a); err != nil {
				t.Fatalf("%+v rejected: %v", c.a, err)
			}
		})
	}
}
