package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultMustFire runs the built command with fault plans and checks
// the exit status: a plan whose site the run never reaches is an error,
// not a clean run.
func TestFaultMustFire(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "rpromote")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = append(os.Environ(), "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args     []string
		exitCode int
		stderr   string // substring of stderr ("" = empty)
		stdout   string // substring of stdout
	}{
		// The default profile mode never runs measure-before.
		{[]string{"-workload", "go", "-fault", "measure-before:panic"}, 1, "never fired", ""},
		{[]string{"-workload", "go", "-fault", "promote/no_such_func:error"}, 1, "never fired", ""},
		// With the static profile measure-before runs, and the fault
		// fails the run as a stage error.
		{[]string{"-workload", "go", "-static-profile", "-fault", "measure-before:panic"}, 1, "injected panic", ""},
		// A per-function fault that fires degrades the function; the run
		// still succeeds.
		{[]string{"-workload", "go", "-fault", "promote/evaluate:panic"}, 0, "", "DEGRADED evaluate at stage promote"},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.exitCode {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", tc.args, code, tc.exitCode, stderr.String())
		}
		if tc.stderr == "" && stderr.Len() > 0 || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.stderr)
		}
		if !strings.Contains(stdout.String(), tc.stdout) {
			t.Errorf("%v: stdout does not contain %q:\n%s", tc.args, tc.stdout, stdout.String())
		}
	}
}
