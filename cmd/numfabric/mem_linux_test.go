package main

import (
	"os/exec"
	"syscall"
	"testing"
)

// TestFullLeapFCTPeakRSS runs the million-flow leapfct the way a user
// types it and holds the process's peak resident set to 220 MB: the
// harness plays the schedule as it happens and keeps one 32-byte record
// per finished flow, so the run measures ≈ 115–135 MB where materialising
// arrivals, picks, flows and paths up front measured ≈ 432 MB. `make
// mem-smoke` runs it; it is skipped under -short.
func TestFullLeapFCTPeakRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("a million-flow run (about 4 s)")
	}
	const limitMB = 220
	cmd := exec.Command(buildBinary(t), "-experiment", "leapfct", "-scale", "full", "-seed", "1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%v: %v\n%s", cmd.Args, err, out)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		t.Skip("no rusage for the child process")
	}
	if mb := float64(ru.Maxrss) / 1024; mb > limitMB { // Linux reports KiB
		t.Errorf("peak RSS %.1f MB, want ≤ %d MB", mb, limitMB)
	} else {
		t.Logf("peak RSS %.1f MB (limit %d MB)", mb, limitMB)
	}
}
