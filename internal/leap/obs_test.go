package leap

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
	"numfabric/internal/obs/obstest"
)

// fullHooks returns one of every hook, freshly constructed.
func fullHooks() obs.Hooks {
	return obs.Hooks{
		Profiler: obs.NewPhaseProfiler(),
		Tracer:   obs.NewTracer(),
		Live:     obs.NewLive(),
		// Reservoir-only sampling: completed records recycle, so the
		// steady-state allocation bound below covers tracing too.
		FlowTrace: obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0}),
	}
}

// TestObsDoesNotChangeResults: attaching every observability hook must
// leave completions byte-identical — instrumentation reads engine
// state, never steers it.
func TestObsDoesNotChangeResults(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		_, bf, bg := runDense(Config{}, seed)
		_, of, og := runDense(Config{Obs: fullHooks()}, seed)
		assertSameCompletions(t, "obs", seed, bf, bg, of, og)
	}
}

// TestPhaseCoverage: the profiler's laps tile the event loop, so the
// per-phase sums must cover nearly all of the wall time spent inside
// Run — the property the repository benchmark's leap.phase.* and
// leap.self_s layers rely on.
func TestPhaseCoverage(t *testing.T) {
	prof := obs.NewPhaseProfiler()
	ft := fluid.NewFatTree(4, 10e9)
	e := NewEngine(ft.Net, Config{Obs: obs.Hooks{Profiler: prof}})
	buildPodBursts(e, ft, false, 1)
	start := time.Now()
	e.Run(math.Inf(1))
	wall := time.Since(start).Nanoseconds()

	s := e.Stats()
	total := int64(0)
	for _, n := range s.PhaseNanos {
		total += n
	}
	if total <= 0 {
		t.Fatalf("no phase time recorded: %+v", s.PhaseNanos)
	}
	if total > wall {
		t.Errorf("phase sum %d exceeds Run wall %d", total, wall)
	}
	if float64(total) < 0.9*float64(wall) {
		t.Errorf("phase sum %d covers %.1f%% of Run wall %d, want >= 90%%",
			total, 100*float64(total)/float64(wall), wall)
	}
	for _, ph := range []obs.Phase{obs.PhaseFlood, obs.PhaseSolve, obs.PhaseComplete} {
		if s.PhaseNanos[ph] <= 0 {
			t.Errorf("phase %s recorded no time: %v", obs.PhaseName(ph), s.PhaseNanos)
		}
	}
	// The retired slots: nothing laps them (set/cancel time is inside
	// PhaseSolve).
	for _, ph := range []obs.Phase{obs.PhaseResplice, obs.PhaseWindow} {
		if s.PhaseNanos[ph] != 0 {
			t.Errorf("retired phase %s recorded %d ns, want 0", obs.PhaseName(ph), s.PhaseNanos[ph])
		}
	}
}

// TestSolveSpansMatchComponents: the trace the tracer writes holds
// exactly one solve span per component solved and one batch span per
// reallocation batch.
func TestSolveSpansMatchComponents(t *testing.T) {
	tr := obs.NewTracer()
	e, _, _ := runDense(Config{Obs: obs.Hooks{Tracer: tr}}, 2)
	s := e.Stats()
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []struct{ Name, Ph string } }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
	}
	if got := spans["solve"]; got != s.BatchComponents {
		t.Errorf("solve spans = %d, components = %d", got, s.BatchComponents)
	}
	if got := spans["batch"]; got != s.Batches {
		t.Errorf("batch spans = %d, batches = %d", got, s.Batches)
	}
}

// TestObsMetricsMatchStats: /metrics and /progress, scraped over HTTP
// from another goroutine while the engine runs, are views of the
// engine's one Stats block and cannot drift from it — on a schedule
// with link failures and recoveries (so the fault counters move) that
// recycles its finished flows halfway, as churn drivers do. Every
// mid-run scrape is held to obstest.Start's conditions; finished_flows
// in particular is cumulative and must not fall back with the list
// ReleaseFinished truncates. Then, with no scraper asking, the
// documents equal Stats() field for field after each exit the engine
// can take: a run's end publishes unconditionally.
func TestObsMetricsMatchStats(t *testing.T) {
	live := obs.NewLive()
	e := NewEngine(fluid.NewNetwork(denseCaps()), Config{Obs: obs.Hooks{Live: live}})
	// One link of each bank down over the middle of the arrivals.
	for _, l := range []int{0, 5} {
		e.FailLink(l, 1e-3)
		e.RecoverLink(l, 3e-3)
	}
	fs, gs := buildDenseSchedule(e, 3)
	var arrivals []float64
	for _, f := range fs {
		arrivals = append(arrivals, f.Arrive)
	}
	for _, g := range gs {
		for _, m := range g.Members {
			arrivals = append(arrivals, m.Arrive)
		}
	}
	// An event at time t has admitted every arrival before t; the ones
	// due exactly at t go in with the next step.
	sc := obstest.Start(t, live, func(sim float64) (lo, hi int) {
		for _, at := range arrivals {
			if at < sim {
				lo++
			}
			if at <= sim {
				hi++
			}
		}
		return lo, hi
	})
	// Stepped four events to a scrape, so the scraper sees the run at
	// some twenty points, on both sides of the release.
	steps := 0
	stepTo := func(until float64) {
		for e.Now() < until && e.Step() {
			if steps++; steps%4 == 0 {
				sc.Tick()
			}
		}
	}
	stepTo(2e-3)
	released, _ := e.ReleaseFinished()
	if released == 0 || released == len(arrivals) {
		t.Fatalf("mid-run release recycled %d flows, want some but not all", released)
	}
	stepTo(3.5e-3)
	sc.Stop()
	// No scraper from here on, so each exit the engine takes must
	// publish unasked: Run at a horizon, then Step returning false. (A
	// scrape leaves its request raised; the step after it answers that,
	// and the ones behind it have nothing to answer.)
	e.Step()
	e.Run(e.Now() + 200e-6)
	if ps, _ := sc.Exact("Run to a horizon", e.Stats(), e.Now()); ps.ActiveFlows == 0 {
		t.Fatal("the horizon left nothing in flight")
	}
	for e.Step() {
	}
	s := e.Stats()
	ps, m := sc.Exact("Step returning false", s, e.Now())

	if s.Faults != 4 || s.Stranded == 0 || s.Resumed != s.Stranded {
		t.Fatalf("schedule exercised no strand/resume: %+v", s)
	}
	for name, want := range map[string]int{
		"engine.events":       s.Events,
		"engine.allocs":       s.Allocs,
		"engine.solved_flows": s.SolvedFlows,
		"engine.faults":       s.Faults,
		"engine.stranded":     s.Stranded,
		"engine.resumed":      s.Resumed,
	} {
		if got, ok := m.Counters[name]; !ok || got != int64(want) {
			t.Errorf("%s = %d (served: %v), stats = %d", name, got, ok, want)
		}
	}
	if got := m.Histograms["engine.batch_components"].Count; got != int64(s.Batches) {
		t.Errorf("batch_components count = %d, batches = %d", got, s.Batches)
	}
	if got := m.Histograms["engine.component_flows"].Count; got != int64(s.Allocs) {
		t.Errorf("component_flows count = %d, allocs = %d", got, s.Allocs)
	}
	if ps.ActiveFlows != 0 || ps.Finished != len(arrivals) || ps.Finished != released+len(e.Finished()) {
		t.Errorf("run-to-completion progress: %d active, %d finished; %d admitted, %d released + %d listed",
			ps.ActiveFlows, ps.Finished, len(arrivals), released, len(e.Finished()))
	}
	if steps < 60 {
		t.Errorf("only %d stepped events: the scraper saw too little of the run", steps)
	}
}

// TestAllocIters: allocators that count internal iterations surface
// the total through Stats, and a repeated run counts the same total.
func TestAllocIters(t *testing.T) {
	mk := func() Config {
		return Config{Allocator: &fluid.XWI{IterPerEpoch: 24, Tol: 1e-3}}
	}
	se, _, _ := runDense(mk(), 1)
	ss := se.Stats()
	if ss.AllocIters < int64(ss.Allocs) {
		t.Fatalf("AllocIters = %d, want >= Allocs = %d", ss.AllocIters, ss.Allocs)
	}
	re, _, _ := runDense(mk(), 1)
	if rs := re.Stats(); rs.AllocIters != ss.AllocIters {
		t.Errorf("repeat AllocIters = %d, first run = %d", rs.AllocIters, ss.AllocIters)
	}
	// WaterFill counts water-fill rounds.
	we, _, _ := runDense(Config{}, 1)
	if ws := we.Stats(); ws.AllocIters <= 0 {
		t.Errorf("WaterFill AllocIters = %d, want > 0", ws.AllocIters)
	}
}

// steadyStateAllocs plays the second half of a single-link coupled
// workload and returns heap allocations per event. The first half
// warms every amortized buffer (heaps, component tables, allocator
// workspaces), so the steady-state loop should allocate essentially
// nothing.
func steadyStateAllocs(t *testing.T, hooks obs.Hooks) float64 {
	t.Helper()
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{Obs: hooks})
	const n = 4000
	dt := 100e-6
	for i := 0; i < n; i++ {
		// Overlapping lifetimes on one link at ~0.5 load: every arrival
		// and departure is coupled (the reallocation path runs
		// steadily) while the active set stays bounded, so no
		// size-indexed buffer grows once warm.
		e.AddFlow([]int{0}, core.ProportionalFair(), 1<<16, float64(i)*dt)
	}
	e.Run(float64(n/2) * dt)
	return warmAllocsPerEvent(t, e, n/2)
}

// warmAllocsPerEvent runs a warmed-up engine to completion and returns
// heap allocations per event, failing if fewer than minEvents fired.
func warmAllocsPerEvent(t *testing.T, e *Engine, minEvents int) float64 {
	t.Helper()
	before := e.Stats().Events
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.Run(math.Inf(1))
	runtime.ReadMemStats(&m1)
	events := e.Stats().Events - before
	if events < minEvents {
		t.Fatalf("warm half processed only %d events", events)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(events)
}

// burstAllocs plays repeated synchronized four-link bursts — every
// batch four components wide, the shape the single-link workload above
// never produces — and returns heap allocations per event over the
// second (warm) half of the run.
func burstAllocs(t *testing.T) float64 {
	t.Helper()
	e := NewEngine(fluid.NewNetwork([]float64{10e9, 10e9, 10e9, 10e9}), Config{})
	// Per-link bytes per round (~100KB) drain well inside dt, so the
	// active set stays bounded and the run is linear in rounds.
	const rounds = 200
	dt := 200e-6
	for q := 0; q < rounds; q++ {
		for l := 0; l < 4; l++ {
			for i := 0; i < 20; i++ {
				e.AddFlow([]int{l}, core.ProportionalFair(), int64(1+i%4)<<11, float64(q)*dt)
			}
		}
	}
	e.Run(float64(rounds/2) * dt)
	allocs := warmAllocsPerEvent(t, e, 1)
	if s := e.Stats(); s.MaxBatchComponents != 4 {
		t.Fatalf("bursts never batched four components: %+v", s)
	}
	return allocs
}

// TestSteadyStateAllocations pins the zero-overhead-when-disabled
// contract: with no hooks the steady-state event loop performs
// essentially zero heap allocations per event, and attaching every
// hook (tracer included) adds at most amortized span-buffer growth —
// no per-event allocation either way.
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is slow under -short")
	}
	if off := steadyStateAllocs(t, obs.Hooks{}); off > 0.1 {
		t.Errorf("obs disabled: %.3f allocs/event, want ~0", off)
	}
	if wide := burstAllocs(t); wide > 0.1 {
		t.Errorf("obs disabled, four-component batches: %.3f allocs/event, want ~0", wide)
	}
	// Everything except the flow tracer: the pre-tracing bound holds.
	noFT := fullHooks()
	noFT.FlowTrace = nil
	if on := steadyStateAllocs(t, noFT); on > 1.0 {
		t.Errorf("obs enabled, flowtrace off: %.3f allocs/event, want < 1", on)
	}
	if on := steadyStateAllocs(t, fullHooks()); on > 1.0 {
		t.Errorf("obs enabled: %.3f allocs/event, want < 1", on)
	}
}
