package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFlagValuesExitBeforeRunning builds the binary and checks
// that a -scale, -experiment or -engine value outside its set is one
// stderr line naming it and exit status 2, with no experiment started
// (a misspelt "-scale ful" used to run the scaled experiment silently).
func TestUnknownFlagValuesExitBeforeRunning(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "numfabric")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"scale misspelt", []string{"-experiment", "table2", "-scale", "ful"}, `unknown scale "ful"`},
		{"scale wrong case", []string{"-experiment", "table2", "-scale", "Full"}, `unknown scale "Full"`},
		{"scale paper", []string{"-experiment", "table2", "-scale", "paper"}, `unknown scale "paper"`},
		{"scale empty", []string{"-experiment", "table2", "-scale", ""}, `unknown scale ""`},
		{"experiment", []string{"-experiment", "table3"}, `unknown experiment "table3"`},
		{"engine", []string{"-experiment", "table2", "-engine", "fast"}, `unknown engine "fast"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, c.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2\nstdout: %s\nstderr: %s", err, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr %q does not mention %s", &stderr, c.want)
			}
			if strings.Contains(stdout.String(), "===") {
				t.Errorf("an experiment started:\n%s", &stdout)
			}
		})
	}
	// The two legal spellings still run.
	for _, scale := range []string{"scaled", "full"} {
		out, err := exec.Command(bin, "-experiment", "fig2", "-scale", scale).CombinedOutput()
		if err != nil || !strings.Contains(string(out), "=== fig2 ===") {
			t.Errorf("-scale %s: %v\n%s", scale, err, out)
		}
	}
}
