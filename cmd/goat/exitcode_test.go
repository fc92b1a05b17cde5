package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExitCodeContract runs the built binary and pins its exit codes:
// 0 on success, 1 on a rejected flag combination or failed run, 2 on a
// usage error (no command, or a flag the binary does not define).
func TestExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "goat")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"minimize-dpor", []string{"-bug", "serving_2137", "-minimize", "-dpor", "-freq", "400"}, 0},
		{"dpor-without-minimize", []string{"-bug", "serving_2137", "-dpor"}, 1},
		{"unknown-bug", []string{"-bug", "no_such_bug", "-freq", "1"}, 1},
		{"prune-is-gone", []string{"-bug", "serving_2137", "-minimize", "-prune"}, 2},
		{"no-command", nil, 2},
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
				t.Fatalf("goat %v exited %d, want %d\n%s", c.args, code, c.want, out)
			}
		})
	}
}
