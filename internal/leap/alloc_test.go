package leap

import (
	"math"
	"strings"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// benchChurn drives one engine through sustained churn — waves of
// coupled single-link flows added, run to completion, and recycled via
// ReleaseFinished — and reports the per-wave allocation count. Flows
// arrive in same-instant PAIRS sharing the one link (a lone 48 KB flow
// would drain in 39 µs, under the 100 µs spacing — no overlap, and the
// independence shortcut would dodge the allocator entirely), so every
// admission floods a 2-flow component through the real solve path and
// every completion instant retires a coupled pair, at ~0.8 load with
// the active set bounded. Two warm-up waves before the timer fill
// every amortized buffer: slab slots, path-arena segments, recycled
// ids, heap and component scratch capacity, pending/finished backing.
func benchChurn(hooks obs.Hooks) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		net := fluid.NewNetwork([]float64{10e9})
		e := NewEngine(net, Config{Obs: hooks})
		const (
			wave = 256 // flows per op, admitted 2 per instant
			dt   = 100e-6
		)
		now := 0.0
		// One path slice and one pre-boxed utility for every AddFlow: the
		// engine copies the path into its arena, and boxing AlphaFair
		// into the Utility interface once (instead of at each call site)
		// keeps the caller's side of the ledger clean too.
		path := []int{0}
		var u core.Utility = core.ProportionalFair()
		op := func() {
			// Arrivals never decrease across waves, so admitDue never
			// re-sorts pending.
			for i := 0; i < wave/2; i++ {
				e.AddFlow(path, u, 48<<10, now)
				e.AddFlow(path, u, 48<<10, now)
				now += dt
			}
			// Past the last arrival plus a full drain: the wave completes
			// within the op, so ReleaseFinished recycles all of it.
			now += 50 * dt
			e.Run(now)
			e.ReleaseFinished()
		}
		op()
		op()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// TestAllocsPerOpSteadyState is the storage layer's contract test:
// once warm, churn through the leap engine heap-allocates NOTHING —
// zero allocations for an entire 256-flow wave of admit/solve/
// complete/recycle with hooks detached — and attaching the full
// observability stack stays under one allocation per completed flow.
// This is the CI alloc-gate's primary pin (see make alloc-gate).
func TestAllocsPerOpSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is slow under -short")
	}
	if a := benchChurn(obs.Hooks{}).AllocsPerOp(); a != 0 {
		t.Errorf("hooks off: %d allocs per 256-flow churn wave, want 0", a)
	}
	if a := benchChurn(fullHooks()).AllocsPerOp(); a >= 256 {
		t.Errorf("hooks on: %d allocs per 256-flow churn wave, want < 256 (1/flow)", a)
	}
}

// TestSeedDrainedAcrossRelease pins a recycling hazard: when a
// completion batch retires two coupled flows in one instant, the first
// retirement seeds the second (still unretired) flow for a re-solve —
// and if the run drains right there, that seed is never consumed. The
// done flow parked in the seed list was always harmless (the flood
// skips finished flows) until ReleaseFinished could recycle its slot:
// the next tenant of the id would inherit the stale seed and get
// solved — and completion-scheduled — at the dead wave's timestamp,
// before its own admission. ReleaseFinished must drop done seeds.
func TestSeedDrainedAcrossRelease(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	u := core.ProportionalFair()
	// One coupled pair, equal sizes: both complete in the same instant
	// and the run drains with the second flow's seed still pending.
	e.AddFlow([]int{0}, u, 48<<10, 0)
	e.AddFlow([]int{0}, u, 48<<10, 0)
	e.Run(1e-3)
	if n := e.ReleaseFinished(); n != 2 {
		t.Fatalf("wave 0: released %d flows, want 2", n)
	}
	// The second wave draws both recycled ids; the first AddFlow gets
	// the stale seed's slot (LIFO free list).
	a := e.AddFlow([]int{0}, u, 48<<10, 2e-3)
	b := e.AddFlow([]int{0}, u, 48<<10, 2e-3)
	e.Run(3e-3)
	for _, f := range []*fluid.Flow{a, b} {
		if !f.Done() {
			t.Fatalf("flow id %d unfinished", f.ID)
		}
		if f.Finish < f.Arrive {
			t.Fatalf("flow id %d finished at %g before its arrival %g (stale seed fired)",
				f.ID, f.Finish, f.Arrive)
		}
	}
	if got := len(e.Finished()); got != 2 {
		t.Fatalf("wave 1: %d finished entries, want 2 (duplicates mean a double retire)", got)
	}
	if n := e.ReleaseFinished(); n != 2 {
		t.Fatalf("wave 1: released %d flows, want 2", n)
	}
}

// TestTableReuseIdenticalResults: a second workload on an engine whose
// tables are full of recycled ids, slab slots, and path segments must
// produce bitwise-identical FCTs to the same workload on a fresh
// engine — recycling is invisible to the simulation.
func TestTableReuseIdenticalResults(t *testing.T) {
	caps := []float64{10e9, 10e9, 10e9}
	run := func(e *Engine, base float64) []float64 {
		now := base
		for i := 0; i < 300; i++ {
			// Two-link paths overlapping round-robin: one coupled
			// component, so every completion exercises the re-solve path.
			e.AddFlow([]int{i % 3, (i + 1) % 3}, core.ProportionalFair(),
				int64(1<<12*(1+i%7)), now)
			now += 37e-6
		}
		e.Run(math.Inf(1))
		fcts := make([]float64, 0, 300)
		for _, f := range e.Finished() {
			fcts = append(fcts, f.FCT())
		}
		e.ReleaseFinished()
		return fcts
	}

	e := NewEngine(fluid.NewNetwork(caps), Config{})
	run(e, 0) // churn the tables: everything below draws recycled slots
	reused := run(e, 100)
	fresh := run(NewEngine(fluid.NewNetwork(caps), Config{}), 100)
	if len(reused) != len(fresh) {
		t.Fatalf("completions: %d on recycled tables, %d fresh", len(reused), len(fresh))
	}
	for i := range reused {
		if math.Float64bits(reused[i]) != math.Float64bits(fresh[i]) {
			t.Fatalf("FCT %d differs: %.17g on recycled tables, %.17g fresh",
				i, reused[i], fresh[i])
		}
	}
}

// TestReleaseFinishedRecycles pins the resource story behind the zero
// figure: across many released waves the table's id space stays
// bounded by the peak live set and the path arena stops growing after
// the first wave (every later path reuses a recycled segment).
func TestReleaseFinishedRecycles(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	tbl := e.Tables()
	const wave = 100
	now := 0.0
	var capAfterFirst, arenaAfterFirst int
	for w := 0; w < 5; w++ {
		for i := 0; i < wave; i++ {
			e.AddFlow([]int{0}, core.ProportionalFair(), 1<<16, now)
			now += 100e-6
		}
		now += 5e-3
		e.Run(now)
		if n := e.ReleaseFinished(); n != wave {
			t.Fatalf("wave %d: released %d flows, want %d", w, n, wave)
		}
		if w == 0 {
			capAfterFirst, arenaAfterFirst = tbl.Cap(), tbl.ArenaInts()
			continue
		}
		if tbl.Cap() != capAfterFirst {
			t.Errorf("wave %d: id high-water %d, want %d (ids must recycle)", w, tbl.Cap(), capAfterFirst)
		}
		if tbl.ArenaInts() != arenaAfterFirst {
			t.Errorf("wave %d: arena carved %d ints, want %d (segments must recycle)", w, tbl.ArenaInts(), arenaAfterFirst)
		}
	}
	if tbl.Len() != 0 {
		t.Errorf("live flows after full release: %d, want 0", tbl.Len())
	}
}

// TestAdmissionSequenceLimit: the admission sequence components are
// ordered by is an int32, which a recycling engine at a million flows a
// second exhausts within the hour. Admitting past it must fail loudly,
// naming the limit, rather than hand the allocator components in
// wrapped order. The counter is preset just below the limit; the last
// representable admission still runs to completion.
func TestAdmissionSequenceLimit(t *testing.T) {
	e := NewEngine(fluid.NewNetwork([]float64{10e9}), Config{})
	e.arrivals.nadmit = math.MaxInt32 - 1
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<16, 0)
	runChecked(e, math.Inf(1))
	if !f.Done() || e.fs[f.ID].seq != math.MaxInt32-1 {
		t.Fatalf("last admission: done %v, seq %d", f.Done(), e.fs[f.ID].seq)
	}
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<16, e.Now())
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "2147483647") {
			t.Fatalf("admission past the limit: recovered %q, want a panic naming 2147483647", msg)
		}
	}()
	e.Step()
}
