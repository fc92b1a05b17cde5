package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExitCodeContract runs the built binary and pins goatfuzz's exit
// codes: 0 when every verdict agrees with its oracle, 1 when the
// campaign fails (here a soak too short to catch its planted leak),
// 2 for usage errors.
func TestExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "goatfuzz")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"diff-clean", []string{"-n", "5", "-seed", "1"}, 0},
		{"service-clean", []string{"-service", "5", "-seed", "1"}, 0},
		{"soak-clean", []string{"-soak", "3000", "-seed", "1"}, 0},
		{"soak-failed", []string{"-soak", "1", "-seed", "1"}, 1},
		{"bad-n", []string{"-n", "0"}, 2},
		{"bad-buggy", []string{"-buggy", "2"}, 2},
		{"unknown-flag", []string{"-nosuchflag"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if code != c.want {
				t.Fatalf("goatfuzz %v exited %d, want %d\n%s", c.args, code, c.want, out)
			}
		})
	}
}
