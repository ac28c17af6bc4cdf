package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"numfabric/internal/harness"
	"numfabric/internal/obs"
	"numfabric/internal/paper"
)

func buildBinary(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "numfabric")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestUnknownFlagValuesExitBeforeRunning builds the binary and checks
// that a -scale, -experiment or -engine value outside its set — or a
// -faults list on an experiment that would ignore it, or one that does
// not parse or resolve against leapfail's fat-tree — is one stderr
// line naming it and exit status 2, with no experiment started (a
// misspelt "-scale ful" used to run the scaled experiment silently,
// "-experiment fig5a -faults ..." a healthy fabric, and a bad list
// under "-experiment all" every experiment before leapfail). So is an
// output file that cannot be created, which used to be reported only
// after every experiment had run, with exit status 0 (an -out or
// -cpuprofile path: exit status 1), and a -debug-addr that cannot be
// listened on, which exited 1 and left an empty -trace-out file behind
// (now it leaves none). So is a flag the run would ignore, which used to
// exit 0: -flowtrace-sample or -flowtrace-slowest with neither
// -flowtrace-out nor -debug-addr, and -debug-hold without -debug-addr.
func TestUnknownFlagValuesExitBeforeRunning(t *testing.T) {
	bin := buildBinary(t)
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	notDir := filepath.Join(t.TempDir(), "file")
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
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
		{"positional argument", []string{"fig2"}, `unexpected argument "fig2": experiments are chosen with -experiment`},
		{"argument after the flags", []string{"-experiment", "table2", "fig2"}, `unexpected argument "fig2"`},
		{"experiment lists the valid ones", []string{"-experiment", "nope"}, "fig4bc, fig5a, fig5b"},
		{"engine leap on table2", []string{"-experiment", "table2", "-engine", "leap"}, "-engine applies to fig4a, fig5a, fig5b, fig7, fig8 only; table2 would ignore -engine leap"},
		{"engine fluid on leapfct", []string{"-experiment", "leapfct", "-engine", "fluid"}, "leapfct would ignore -engine fluid"},
		{"engine fluid on fattree", []string{"-experiment", "fattree", "-engine", "fluid"}, "fattree would ignore -engine fluid"},
		{"faults outside leapfail", []string{"-experiment", "fig5a", "-faults", "link1@1ms"}, "-faults applies to the leapfail experiment only"},
		{"faults malformed", []string{"-experiment", "leapfail", "-faults", "link1@soon"}, `fault "link1@soon": bad time`},
		{"faults empty list", []string{"-experiment", "leapfail", "-faults", " , "}, "names no fault"},
		{"faults target out of range", []string{"-experiment", "all", "-faults", "core99@1ms"}, `fault target "core99": core out of range [0,16)`},
		{"faults time overflows", []string{"-experiment", "leapfail", "-faults", "link0@3000h"}, `fault "link0@3000h": time overflows`},
		{"flowtrace sample NaN", []string{"-experiment", "table2", "-flowtrace-sample", "NaN"}, "-flowtrace-sample NaN: want a fraction in [0, 1]"},
		{"flowtrace sample negative", []string{"-experiment", "table2", "-flowtrace-sample", "-0.5"}, "-flowtrace-sample -0.5: want a fraction"},
		{"flowtrace sample above one", []string{"-experiment", "table2", "-flowtrace-sample", "1.5"}, "-flowtrace-sample 1.5: want a fraction"},
		{"flowtrace sample infinite", []string{"-experiment", "table2", "-flowtrace-sample", "+Inf"}, "-flowtrace-sample +Inf: want a fraction"},
		{"flowtrace slowest negative", []string{"-experiment", "table2", "-flowtrace-slowest", "-3"}, "-flowtrace-slowest -3: want a count"},
		{"debug hold negative", []string{"-experiment", "table2", "-debug-hold", "-1s"}, "-debug-hold -1s: want a duration ≥ 0"},
		{"flowtrace sample without a trace", []string{"-experiment", "leapfct", "-flowtrace-sample", "0.5"}, "-flowtrace-sample applies with -flowtrace-out or -debug-addr only"},
		{"flowtrace slowest without a trace", []string{"-experiment", "leapfct", "-flowtrace-slowest", "8", "-trace-out", traceOut}, "-flowtrace-slowest applies with -flowtrace-out or -debug-addr only"},
		{"debug hold without a server", []string{"-experiment", "table2", "-debug-hold", "1s"}, "-debug-hold applies with -debug-addr only"},
		{"trace out unwritable", []string{"-experiment", "table2", "-trace-out", missing}, "-trace-out: open " + missing},
		{"flowtrace out unwritable", []string{"-experiment", "table2", "-flowtrace-out", missing}, "-flowtrace-out: open " + missing},
		{"memprofile unwritable", []string{"-experiment", "table2", "-memprofile", missing}, "-memprofile: open " + missing},
		{"cpuprofile unwritable", []string{"-experiment", "table2", "-cpuprofile", missing}, "-cpuprofile: open " + missing},
		{"out unwritable", []string{"-experiment", "table2", "-out", filepath.Join(notDir, "csv")}, "-out: mkdir " + notDir},
		{"debug addr without port", []string{"-experiment", "table2", "-debug-addr", "nonsense", "-trace-out", traceOut}, "-debug-addr: listen tcp: address nonsense: missing port"},
		{"debug addr port out of range", []string{"-experiment", "table2", "-debug-addr", "127.0.0.1:99999"}, "-debug-addr: listen tcp: address 99999: invalid port"},
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
			if n := strings.Count(stderr.String(), "\n"); n != 1 {
				t.Errorf("stderr is %d lines, want 1:\n%s", n, &stderr)
			}
			if strings.Contains(stdout.String(), "===") {
				t.Errorf("an experiment started:\n%s", &stdout)
			}
			if _, err := os.Stat(traceOut); err == nil {
				t.Errorf("%s left behind", traceOut)
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

// TestFlowTraceFlags: -flowtrace-slowest 0 asks for no reservoir and
// gets none (the tracer config reads 0 as its default of 64), the
// default flags give the default reservoir, and both bounds of the
// sample fraction are accepted.
func TestFlowTraceFlags(t *testing.T) {
	for _, c := range []struct {
		sample  float64
		slowest int
		want    int
	}{{0.01, 0, 0}, {0.01, 64, 64}, {0, 5, 5}, {1, 1, 1}} {
		cfg, err := flowTraceConfig(c.sample, c.slowest)
		if err != nil {
			t.Fatalf("flowTraceConfig(%v, %d): %v", c.sample, c.slowest, err)
		}
		if got := obs.NewFlowTracer(cfg).Summary(); got.SlowestK != c.want || got.SampleRate != c.sample {
			t.Errorf("flags (%v, %d): tracer keeps slowest %d at sample %v, want %d at %v",
				c.sample, c.slowest, got.SlowestK, got.SampleRate, c.want, c.sample)
		}
	}
}

// TestExperimentTable: every id in the table (and "all") passes the
// flag check, alone and — for the two that take one — with a fault
// list, with -engine leap exactly where the table says it takes an
// engine, and the package comment names each id.
func TestExperimentTable(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	for _, e := range paper.Experiments {
		if _, err := checkFlags(e.ID, harness.EnginePacket, ""); err != nil {
			t.Errorf("checkFlags(%q): %v", e.ID, err)
		}
		if !regexp.MustCompile(`\b` + e.ID + `\b`).MatchString(doc) {
			t.Errorf("package comment does not name experiment %q", e.ID)
		}
		if _, err := checkFlags(e.ID, harness.EngineLeap, ""); (err != nil) == e.TakesEngine {
			t.Errorf("checkFlags(%q, leap): %v, want error %v", e.ID, err, !e.TakesEngine)
		}
		wantErr := e.ID != "leapfail"
		if _, err := checkFlags(e.ID, harness.EnginePacket, "link1@1ms"); (err != nil) != wantErr {
			t.Errorf("checkFlags(%q, faults): %v, want error %v", e.ID, err, wantErr)
		}
	}
	if faults, err := checkFlags("all", harness.EngineLeap, "agg0.0@1ms+1ms"); err != nil || len(faults) != 32 {
		t.Errorf(`checkFlags("all", faults): %d link faults, %v; want an agg switch's 16 links failed and recovered`, len(faults), err)
	}
	if _, err := checkFlags("fig", harness.EnginePacket, ""); err == nil {
		t.Error(`checkFlags("fig") accepted a prefix of an id`)
	}
}

// TestSampledExperimentsNameTheEngineThatRan: fig4a and fig8 cannot
// run on leap; asked to, they say which engine runs instead and why,
// and their header names that engine.
func TestSampledExperimentsNameTheEngineThatRan(t *testing.T) {
	bin := buildBinary(t)
	for _, exp := range []string{"fig4a", "fig8"} {
		out, err := exec.Command(bin, "-experiment", exp, "-engine", "leap").CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", exp, err, out)
		}
		for _, want := range []string{"-engine leap: leap has no transient", "fluid engine)"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("%s -engine leap: output does not contain %q:\n%s", exp, want, out)
			}
		}
		if strings.Contains(string(out), "leap engine)") {
			t.Errorf("%s -engine leap: header still claims the leap engine:\n%s", exp, out)
		}
	}
	// An engine that does run is named without a note.
	out, err := exec.Command(bin, "-experiment", "fig8", "-engine", "fluid").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "(Figure 8, fluid engine)") || strings.Contains(string(out), "-engine fluid:") {
		t.Errorf("fig8 -engine fluid: %v\n%s", err, out)
	}
}

// TestExperimentStdoutGolden pins what the quick experiments print at
// seed 1, byte for byte, against testdata/stdout/<id>[-<engine>].txt:
// the report formats, their order and every printed digit. The files
// are the binary's own stdout (`numfabric -experiment <id> -seed 1
// [-engine <engine>] > testdata/stdout/<name>.txt`); regenerate one
// only for a change that moves those results on purpose, in a commit
// of its own. The engine variants are skipped under -short.
func TestExperimentStdoutGolden(t *testing.T) {
	bin := buildBinary(t)
	cases := []struct{ exp, engine string }{
		{"table1", ""}, {"table2", ""}, {"fig2", ""}, {"fig5b", ""}, {"fig9", ""}, {"fig10", ""},
		{"fig4a", "fluid"}, {"fig8", "fluid"},
		{"fig5a", "fluid"}, {"fig5a", "leap"}, {"fig7", "fluid"}, {"fig7", "leap"},
	}
	for _, c := range cases {
		name := c.exp
		args := []string{"-experiment", c.exp, "-seed", "1"}
		if c.engine != "" {
			name += "-" + c.engine
			args = append(args, "-engine", c.engine)
		}
		t.Run(name, func(t *testing.T) {
			if c.engine != "" && testing.Short() {
				t.Skip("engine variant")
			}
			want, err := os.ReadFile(filepath.Join("testdata", "stdout", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(bin, args...).Output()
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := range max(len(gl), len(wl)) {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("stdout line %d:\n got %q\nwant %q", i+1, g, w)
				}
			}
		})
	}
}

// TestFatTreeCSVGolden pins the fattree experiment's per-flow CSV —
// every flow's size and FCT on the epoch engine, in arrival order —
// byte for byte at seed 1. The digest was generated at PR 20's parent
// commit, when runFatTree still built its own engine.
func TestFatTreeCSVGolden(t *testing.T) {
	const want = "189a17d456bf6725845d6007823c6f930f330396d179d9ff2799301262dd3d55"
	bin, dir := buildBinary(t), t.TempDir()
	out, err := exec.Command(bin, "-experiment", "fattree", "-seed", "1", "-out", dir).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "finished 50000/50000 flows (0 unfinished)") {
		t.Fatalf("fattree: %v\n%s", err, out)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fattree_fct.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(csv)); got != want {
		t.Errorf("fattree_fct.csv sha-256 %s, want %s", got, want)
	}
}
