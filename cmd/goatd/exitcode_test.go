package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// buildGoatd builds the command into a temporary directory.
func buildGoatd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "goatd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// exitCode returns the process exit status of a finished command.
func exitCode(t *testing.T, err error, out []byte) int {
	t.Helper()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	return 0
}

// TestExitCodeContract pins goatd's exit codes: 0 for help and a
// completed campaign, 1 for a campaign that cannot be set up, 2 for
// usage errors (no mode, an unknown mode, an unknown flag).
func TestExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildGoatd(t)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no-mode", nil, 2},
		{"unknown-mode", []string{"bogus"}, 2},
		{"help", []string{"help"}, 0},
		{"unknown-flag", []string{"serve", "-nosuchflag"}, 2},
		{"unknown-bug", []string{"serve", "-bugs", "no_such_bug"}, 1},
		{"bad-faults", []string{"serve", "-faults", "zzz=1"}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if code := exitCode(t, err, out); code != c.want {
				t.Fatalf("goatd %v exited %d, want %d\n%s", c.args, code, c.want, out)
			}
		})
	}
}

// TestServeWorkCampaignExitsZero runs a one-kernel campaign through a
// coordinator and one worker on a loopback port: both processes exit 0
// and the coordinator prints the merged table and its health report.
func TestServeWorkCampaignExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildGoatd(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	serve := exec.CommandContext(ctx, bin, "serve", "-addr", "127.0.0.1:0", "-bugs", "moby_28462", "-freq", "5")
	var stdout bytes.Buffer
	serve.Stdout = &stdout
	pr, pw := io.Pipe()
	serve.Stderr = pw
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		err := serve.Wait()
		pw.Close()
		done <- err
	}()
	// The coordinator announces its port on stderr; keep draining it
	// afterwards so its writes never block.
	addrRE := regexp.MustCompile(`on (http://[0-9.]+:[0-9]+)`)
	addrs := make(chan string, 1)
	go func() {
		sent := false
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if m := addrRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrs <- m[1]
				sent = true
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrs:
	case err := <-done:
		t.Fatalf("coordinator exited before announcing its address: %v", err)
	}

	out, err := exec.CommandContext(ctx, bin, "work", "-coord", addr, "-name", "w1").CombinedOutput()
	if code := exitCode(t, err, out); code != 0 {
		t.Fatalf("worker exited %d, want 0\n%s", code, out)
	}
	if code := exitCode(t, <-done, stdout.Bytes()); code != 0 {
		t.Fatalf("coordinator exited %d, want 0\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "campaign health: all 8 cells completed") {
		t.Fatalf("coordinator report lacks the health line:\n%s", stdout.String())
	}
}
