package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/sim"
)

// The benchmark times generation and routing as separate layers, so it
// cannot call the harness's one-shot generators; this pins its own two
// steps to them draw for draw.
func TestScheduleIdentity(t *testing.T) {
	const n = 2000
	ft := fluid.NewFatTree(fatTreeK, fatTreeRate)
	for _, seed := range []uint64{1, 2} {
		wantA, wantP := harness.FatTreeWebSearch(ft, 0.1, n, sim.NewRNG(seed))
		gotA, gotP := leapSchedule("poisson-wf", ft, n, seed, nil, nil)
		if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotP, wantP) {
			t.Errorf("seed %d: poisson-wf schedule differs from harness.FatTreeWebSearch", seed)
		}
		wantA, wantP = harness.FatTreeCoflows(ft, 0.1, n, 15, 24, sim.NewRNG(seed))
		gotA, gotP = leapSchedule("coflows-wf", ft, n, seed, nil, nil)
		if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotP, wantP) {
			t.Errorf("seed %d: coflows-wf schedule differs from harness.FatTreeCoflows", seed)
		}
	}
}

// Two flows on one 8 Gb/s link (1e9 B/s). A (3 MB) arrives at 0, B
// (1 MB) at 1 ms: A runs alone for 1 ms, they halve the link until B
// finishes at 3 ms, A finishes alone at 4 ms.
func TestRefSimTwoFlowsSharedLink(t *testing.T) {
	fct := refFCTs([]float64{8e9}, []float64{0, 1e-3}, []float64{3e6, 1e6}, [][]int{{0}, {0}})
	for i, want := range []float64{4e-3, 2e-3} {
		if math.Abs(fct[i]-want) > 1e-15 {
			t.Errorf("flow %d: FCT %v, want %v", i, fct[i], want)
		}
	}
	failed, errMax := refCompare([]float64{4e-3, 2e-3 * (1 + 1e-6)}, fct)
	if failed != 1 || math.Abs(errMax-1e-6) > 1e-9 {
		t.Errorf("refCompare = %d failed, max %v; want 1 failed, max 1e-6", failed, errMax)
	}
	if failed, _ := refCompare([]float64{math.NaN(), 2e-3}, fct); failed != 1 {
		t.Errorf("a NaN engine FCT must count as failed, got %d", failed)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != higher && m.Better != lower {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// BENCHMARK.json is the driver's copy of spec.go.
func TestSpecMatchesManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", manifest.Paths)
	}
	if !reflect.DeepEqual(manifest.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", manifest.Command)
	}
	if manifest.RunSeconds < 1 || manifest.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", manifest.RunSeconds)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in spec.go", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m := manifest.Workloads[i]; m.Name != w.Name || m.Why != w.Why {
			t.Errorf("workload %d: manifest has %q, spec.go %q", i, m.Name, w.Name)
		}
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%v\n%v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go")
	}
}

// fakeAlloc records which methods the decorator forwards.
type fakeAlloc struct{ calls []string }

func (f *fakeAlloc) Allocate(*fluid.Network, []*fluid.Flow, []float64) {
	f.calls = append(f.calls, "Allocate")
}
func (f *fakeAlloc) AllocateSubset(*fluid.Network, []*fluid.Flow, []float64) {
	f.calls = append(f.calls, "AllocateSubset")
}
func (f *fakeAlloc) Reset()                        { f.calls = append(f.calls, "Reset") }
func (f *fakeAlloc) Prime(*fluid.Network)          { f.calls = append(f.calls, "Prime") }
func (f *fakeAlloc) Worker() fluid.SubsetAllocator { f.calls = append(f.calls, "Worker"); return f }
func (f *fakeAlloc) Stationary() bool              { return true }
func (f *fakeAlloc) SolveIters() int64             { return 42 }

func TestTimedAllocForwards(t *testing.T) {
	var (
		_ fluid.ParallelSubsetAllocator = (*timedAlloc)(nil)
		_ fluid.StationaryAllocator     = (*timedAlloc)(nil)
		_ fluid.IterCounter             = (*timedAlloc)(nil)
	)
	inner := &fakeAlloc{}
	a := newTimedAlloc(inner)
	flows := make([]*fluid.Flow, 5)
	a.Prime(nil)
	w := a.Worker()
	a.Allocate(nil, flows, nil)
	a.AllocateSubset(nil, flows[:2], nil)
	w.AllocateSubset(nil, flows, nil)
	w.Reset()
	a.Reset()
	want := []string{"Prime", "Worker", "Allocate", "AllocateSubset", "AllocateSubset", "Reset", "Reset"}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("forwarded %v, want %v", inner.calls, want)
	}
	if !a.Stationary() || a.SolveIters() != 42 {
		t.Errorf("Stationary/SolveIters not forwarded")
	}
	if newTimedAlloc(&fluid.XWI{}).Stationary() {
		t.Errorf("XWI declares no Stationary: the decorator must answer false")
	}
	calls, nflows, _ := a.totals.sum()
	if calls != 3 || nflows != 12 || a.totals.maxFlows != 5 || a.totals.calls[0] != 1 || a.totals.calls[1] != 2 {
		t.Errorf("totals = %+v", *a.totals)
	}
}

// Every in-process workload at 200 flows: no failed flow, the traced
// play's FCT bits equal the untraced play's (the decorator and the
// profiler change nothing), and every layer it reports is a name
// spec.go declares.
func TestSmoke(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	const n = 200
	for i := range workloads {
		w := &workloads[i]
		if w.Kind == kindCLI {
			continue // a child process of its own; run.sh drives it
		}
		plain := runPlay(w, 1, n, nil, false, time.Now())
		traced := runPlay(w, 1, n, &spanRecorder{t0: time.Now()}, false, time.Now())
		for _, p := range []playResult{plain, traced} {
			if p.Failed != 0 || p.Finished != n || p.Attempted != n {
				t.Errorf("%s: %d failed, %d finished of %d: %s", w.Name, p.Failed, p.Finished, p.Attempted, p.Why)
			}
			if p.SetupS <= 0 {
				t.Errorf("%s: setup_s = %v", w.Name, p.SetupS)
			}
			for name := range p.Layers {
				if !declared[name] {
					t.Errorf("%s reports undeclared layer metric %q", w.Name, name)
				}
			}
		}
		if plain.Fingerprint != traced.Fingerprint {
			t.Errorf("%s: traced fingerprint %s != untraced %s", w.Name, traced.Fingerprint, plain.Fingerprint)
		}
		if len(plain.Spans) != 0 || len(traced.Spans) == 0 {
			t.Errorf("%s: spans recorded untraced=%d traced=%d", w.Name, len(plain.Spans), len(traced.Spans))
		}
		if _, err := json.Marshal(traced); err != nil {
			t.Errorf("%s: result does not encode: %v", w.Name, err)
		}
		if w.Ref {
			if ref := runPlay(w, 1, n, nil, true, time.Now()); ref.Failed != 0 || ref.Layers["ref.flows"] != n {
				t.Errorf("%s: reference check failed %d of %v flows: %s", w.Name, ref.Failed, ref.Layers["ref.flows"], ref.Why)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// A cell is the median over schedules of each schedule's median repeat
// (lowest, for peak memory), every time divided by the host's slowdown
// beside that play: a slow spell of the host drops out, the schedules'
// own differences stay.
func TestCellIsMedianOverSchedulesOfCalibratedMedians(t *testing.T) {
	var plays []playSummary
	for _, p := range []struct {
		seed                  uint64
		wall, setup, cpu, rss float64
		slowdown              float64
	}{
		{5, 1, 0.1, 0.9, 12, 1}, {6, 4, 0.2, 3.9, 13, 1}, {7, 5, 0.3, 4.9, 14, 1}, // round 1
		{5, 2, 0.2, 1.8, 30, 2}, {6, 8, 0.4, 7.8, 13, 2}, {7, 10, 0.6, 9.8, 14, 2}, // round 2: host at half speed
		{5, 1, 0.1, 0.9, 12, 1}, {6, 9, 0.2, 3.9, 13, 1}, {7, 5, 0.3, 4.9, 40, 1}, // round 3: one disturbed play
	} {
		plays = append(plays, playSummary{p.seed, p.wall, p.setup, p.cpu, p.rss, 100, p.slowdown})
	}
	for name, want := range map[string]float64{"flows_per_s": 25, "setup_s": 0.2, "cpu_s": 3.9, "rss_mb": 13} {
		for _, m := range endToEnd {
			if c := newCell(m, plays); m.Name == name && (c.Median != want || c.Plays != 9) {
				t.Errorf("%s: cell %+v, want median %v of 9 plays", name, c, want)
			}
		}
	}
}

func TestDiffVerdicts(t *testing.T) {
	// One schedule, one play per factor; b's walls are a's scaled by the
	// given factors.
	mk := func(fp string, factors ...float64) record {
		wr := workloadRecord{Name: "poisson-wf", Fingerprint: fp, EndToEnd: map[string]cell{}}
		for _, f := range factors {
			wr.Plays = append(wr.Plays, playSummary{Seed: 1, WallS: f, SetupS: 1, CPUS: 1, RSSMB: 1, Finished: 100, Slowdown: 1})
		}
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = newCell(m, wr.Plays)
		}
		return record{Schema: recordSchema, Workloads: []workloadRecord{wr}}
	}
	base := mk("f", 1, 1, 1, 1, 1)
	for _, tc := range []struct {
		name string
		b    record
		ok   bool
		want string
	}{
		{"within the bound", mk("f", 1.05, 1.04, 1.05, 1.06, 1.05), true, "ok"},
		{"beyond the bound", mk("f", 1.5, 1.49, 1.5, 1.51, 1.5), false, "regressed"},
		{"plays disagree by more than the bound allows", mk("f", 0.5, 2, 1, 0.4, 2.2), false, "unresolved"},
		{"too few plays pair up", mk("f", 1, 1), false, "unresolved"},
		{"simulated statistics moved", mk("g", 1, 1, 1, 1, 1), false, "DIFFERENT"},
	} {
		var out bytes.Buffer
		if ok := diff(&out, base, tc.b); ok != tc.ok || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok=%v, output lacks %q:\n%s", tc.name, ok, tc.want, out.String())
		}
	}
}

// Two plays of one seed that disagree on a finish-time bit fail every
// flow of the workload; different seeds may differ freely.
func TestNondeterminismFailsTheWorkload(t *testing.T) {
	wr := workloadRecord{Name: "poisson-wf", Flows: 100}
	wr.absorb(playResult{Seed: 5, Attempted: 100, Finished: 100, Fingerprint: "aa"})
	wr.absorb(playResult{Seed: 6, Attempted: 100, Finished: 100, Fingerprint: "bb"})
	wr.absorb(playResult{Seed: 5, Attempted: 100, Finished: 100, Fingerprint: "aa"})
	if wr.Failed != 0 || wr.FailFrac != 0 {
		t.Fatalf("consistent plays failed: %+v", wr)
	}
	wr.absorb(playResult{Seed: 6, Attempted: 100, Finished: 100, Fingerprint: "bc"})
	if wr.FailFrac != 1 || wr.Failed != wr.Attempted || !strings.Contains(wr.Why, "nondeterministic") {
		t.Errorf("a changed fingerprint must fail the workload: %+v", wr)
	}
}
