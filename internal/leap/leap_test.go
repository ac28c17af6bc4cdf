package leap

import (
	"fmt"
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/refsim"
	"numfabric/internal/sim"
)

func almostEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// TestSingleFlowExactFCT: one finite flow on one link completes in
// exactly size×8/capacity seconds, in one allocation.
func TestSingleFlowExactFCT(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 10<<20, 0)
	e.Run(math.Inf(1))
	want := float64(10<<20) * 8 / 10e9
	if !f.Done() || !almostEq(f.FCT(), want, 1e-12) {
		t.Fatalf("FCT = %v, want %v", f.FCT(), want)
	}
	// A lone flow is independent end to end: the fast path never
	// invokes the allocator.
	if e.Stats().Allocs != 0 {
		t.Errorf("allocs = %d, want 0", e.Stats().Allocs)
	}
}

// TestTwoFlowsPiecewise: the textbook two-flow overlap on a shared
// 10G link, checked against the closed-form piecewise solution.
//
//	A: 10 MB at t=0      alone 10G until B arrives
//	B: 2.5 MB at t=2ms   both at 5G until B finishes at 6ms
//	                     A alone again at 10G, finishes at 10ms
func TestTwoFlowsPiecewise(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	sizeA := int64(math.Round(10e9 * 8e-3 / 8)) // 8 ms of wire time
	sizeB := int64(math.Round(10e9 * 2e-3 / 8)) // 2 ms of wire time
	a := e.AddFlow([]int{0}, core.ProportionalFair(), sizeA, 0)
	b := e.AddFlow([]int{0}, core.ProportionalFair(), sizeB, 2e-3)
	e.Run(math.Inf(1))
	if !almostEq(b.Finish, 6e-3, 1e-9) {
		t.Errorf("B finish = %v, want 6ms", b.Finish)
	}
	if !almostEq(a.Finish, 10e-3, 1e-9) {
		t.Errorf("A finish = %v, want 10ms", a.Finish)
	}
	if fin := e.Finished(); len(fin) != 2 || fin[0] != b || fin[1] != a {
		t.Errorf("finished order wrong: %v", fin)
	}
}

// TestMatchesEpochEngine: a seeded multi-link scenario through leap
// and through the fluid epoch engine at a fine epoch produces the same
// completion times (identical WaterFill allocator; the only epoch-
// engine error left is arrival quantization, bounded by one epoch).
func TestMatchesEpochEngine(t *testing.T) {
	caps := []float64{10e9, 10e9, 10e9, 40e9}
	paths := [][]int{{0, 3}, {1, 3}, {2, 3}, {0, 3}, {1, 3}}
	sizes := []int64{4 << 20, 1 << 20, 2 << 20, 512 << 10, 8 << 20}
	at := []float64{0, 100e-6, 250e-6, 400e-6, 450e-6}

	le := NewEngine(fluid.NewNetwork(caps), Config{Allocator: fluid.NewWaterFill()})
	fe := fluid.NewEngine(fluid.NewNetwork(caps), fluid.Config{
		Epoch:     1e-6,
		Allocator: fluid.NewWaterFill(),
	})
	var lf, ff []*fluid.Flow
	for i := range paths {
		lf = append(lf, le.AddFlow(paths[i], core.ProportionalFair(), sizes[i], at[i]))
		ff = append(ff, fe.AddFlow(paths[i], core.ProportionalFair(), sizes[i], at[i]))
	}
	le.Run(math.Inf(1))
	fe.Run(1)
	for i := range lf {
		if !lf[i].Done() || !ff[i].Done() {
			t.Fatalf("flow %d unfinished (leap %v epoch %v)", i, lf[i].Done(), ff[i].Done())
		}
		if !almostEq(lf[i].FCT(), ff[i].FCT(), 0.01) {
			t.Errorf("flow %d: leap FCT %.6g, epoch FCT %.6g (>1%% apart)",
				i, lf[i].FCT(), ff[i].FCT())
		}
	}
}

// TestFastPathAfterDrainToEmpty: once every flow (including a coupled
// pair whose completion latches a reallocation) has drained out, the
// next isolated arrival still takes the zero-allocation fast path.
func TestFastPathAfterDrainToEmpty(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0) // coupled pair
	e.Run(math.Inf(1))
	base := e.Stats().Allocs
	if base == 0 {
		t.Fatal("coupled pair should have allocated")
	}
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, e.Now()+1e-3)
	e.Run(math.Inf(1))
	if e.Stats().Allocs != base {
		t.Errorf("isolated arrival after drain-to-empty allocated (%d -> %d allocs)",
			base, e.Stats().Allocs)
	}
}

// TestUnboundedReachesFixedPoint: with only unbounded flows active and
// no arrivals pending, Step reports no further events (rates constant
// forever) instead of spinning.
func TestUnboundedReachesFixedPoint(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 0, 0)
	steps := 0
	for e.Step() {
		if steps++; steps > 10 {
			t.Fatal("engine did not reach a fixed point")
		}
	}
	if f.Done() {
		t.Error("unbounded flow should not complete")
	}
	if f.Rate != 10e9 {
		t.Errorf("rate = %v, want 10G", f.Rate)
	}
}

// TestZeroRateNoLivelock: a flow the allocator starves (zero weight
// path shadowed — emulated with a zero-capacity link) produces no
// completion event; the engine halts rather than spinning.
func TestZeroRateNoLivelock(t *testing.T) {
	net := fluid.NewNetwork([]float64{0})
	e := NewEngine(net, Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.Run(math.Inf(1))
	if f.Done() {
		t.Error("starved flow should not complete")
	}
}

// buildSchedule adds a deterministic mixed workload to an engine and
// returns the flows (used by the determinism test, twice).
func buildSchedule(e *Engine) []*fluid.Flow {
	var fs []*fluid.Flow
	links := [][]int{{0, 2}, {1, 2}, {0, 2}, {1, 2}}
	for i := 0; i < 40; i++ {
		sz := int64(64<<10 + (i%7)*(128<<10))
		at := float64(i%11) * 37e-6
		fs = append(fs, e.AddFlow(links[i%len(links)], core.ProportionalFair(), sz, at))
	}
	// A late burst of synchronized arrivals.
	for i := 0; i < 8; i++ {
		fs = append(fs, e.AddFlow(links[i%2], core.ProportionalFair(), 256<<10, 300e-6))
	}
	return fs
}

// TestDeterministicEventOrdering: two engines fed the identical
// schedule produce byte-identical event orderings — same completion
// order, bitwise-equal finish times, same event and allocation counts.
func TestDeterministicEventOrdering(t *testing.T) {
	caps := []float64{10e9, 10e9, 25e9}
	e1 := NewEngine(fluid.NewNetwork(caps), Config{})
	e2 := NewEngine(fluid.NewNetwork(caps), Config{})
	buildSchedule(e1)
	buildSchedule(e2)
	e1.Run(math.Inf(1))
	e2.Run(math.Inf(1))
	if e1.Stats().Events != e2.Stats().Events || e1.Stats().Allocs != e2.Stats().Allocs {
		t.Fatalf("run shape differs: events %d vs %d, allocs %d vs %d",
			e1.Stats().Events, e2.Stats().Events, e1.Stats().Allocs, e2.Stats().Allocs)
	}
	f1, f2 := e1.Finished(), e2.Finished()
	if len(f1) != len(f2) {
		t.Fatalf("finished %d vs %d flows", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i].ID != f2[i].ID || f1[i].Finish != f2[i].Finish {
			t.Fatalf("completion %d differs: flow %d @%v vs flow %d @%v",
				i, f1[i].ID, f1[i].Finish, f2[i].ID, f2[i].Finish)
		}
	}
}

// TestIdleGapCostsNothing: events, not simulated time, bound the work —
// two flows a simulated hour apart cost four events.
func TestIdleGapCostsNothing(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 3600)
	e.Run(math.Inf(1))
	if len(e.Finished()) != 2 {
		t.Fatalf("finished %d flows", len(e.Finished()))
	}
	if e.Stats().Events > 6 {
		t.Errorf("%d events for two isolated flows, want ≤ 6", e.Stats().Events)
	}
	if e.Stats().Allocs != 0 {
		t.Errorf("%d allocs, want 0 (both flows independent)", e.Stats().Allocs)
	}
}

// buildDenseSchedule adds a dense random workload — flows over two
// disjoint link banks, with arrivals quantized so batches land on
// shared instants and sizes quantized so completions collide — to an
// engine, via one seeded stream. Returns the flows for comparison.
func buildDenseSchedule(e scheduler, seed uint64) []*fluid.Flow {
	rng := sim.NewRNG(seed)
	// Two disjoint banks guarantee the link-sharing graph always has
	// at least two components for the component-local path to win on.
	banks := [2][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	var fs []*fluid.Flow
	for i := 0; i < 150; i++ {
		bank := banks[rng.Intn(2)]
		// A 1-2 link path within the bank.
		path := []int{bank[rng.Intn(len(bank))]}
		if rng.Intn(2) == 0 {
			l := bank[rng.Intn(len(bank))]
			if l != path[0] {
				path = append(path, l)
			}
		}
		at := float64(rng.Intn(40)) * 100e-6
		sz := int64(rng.Intn(16)+1) * (64 << 10)
		fs = append(fs, e.AddFlow(path, core.ProportionalFair(), sz, at))
	}
	return fs
}

// denseCaps is the dense property schedule's two-bank link vector.
func denseCaps() []float64 {
	return []float64{10e9, 10e9, 25e9, 40e9, 10e9, 10e9, 25e9, 40e9}
}

// runDense plays one dense random schedule to completion under cfg,
// invariants checked along the way, and returns the engine plus its
// flows.
func runDense(cfg Config, seed uint64) (*Engine, []*fluid.Flow) {
	e := NewEngine(fluid.NewNetwork(denseCaps()), cfg)
	fs := buildDenseSchedule(e, seed)
	runChecked(e, math.Inf(1))
	return e, fs
}

// assertSameCompletions fails unless the two runs left every flow at
// bitwise-equal finish times — including NaN for flows both runs left
// unfinished, which plain == would reject.
func assertSameCompletions(t *testing.T, label string, seed uint64, af, bf []*fluid.Flow) {
	t.Helper()
	for i := range af {
		if math.Float64bits(af[i].Finish) != math.Float64bits(bf[i].Finish) {
			t.Fatalf("%s seed %d flow %d: finish %v != %v",
				label, seed, af[i].ID, af[i].Finish, bf[i].Finish)
		}
	}
}

// TestComponentLocalMatchesReference is the component-machinery
// property test: dense random schedules (simultaneous arrivals,
// colliding completions) through the engine and through
// internal/refsim — a full re-solve at every single event — must
// finish every flow at the same times. WaterFill's
// progressive filling is separable across connected components, so
// any disagreement beyond float noise is a component-tracking bug.
func TestComponentLocalMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		local, lf := runDense(Config{}, seed)
		ref := refsim.New(fluid.NewNetwork(denseCaps()), fluid.NewWaterFill())
		rf := buildDenseSchedule(ref, seed)
		ref.Run(math.Inf(1))
		assertMatchesReference(t, "local-vs-reference", seed, finishTimes(lf), finishTimes(rf))
		ls := local.Stats()
		if ls.SolvedFlows >= ls.FullSolveFlows {
			t.Errorf("seed %d: component-local solved %d flows, whole-set re-solves %d — no win",
				seed, ls.SolvedFlows, ls.FullSolveFlows)
		}
		if ls.FullSolveFlows == 0 || ls.MaxComponent == 0 {
			t.Errorf("seed %d: stats not populated: %+v", seed, ls)
		}
	}
}

// TestComponentStats: two link-disjoint flow pairs arriving at
// different instants are solved as two size-2 components, and the
// counterfactual full-solve work exceeds the component-local work.
func TestComponentStats(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9, 10e9})
	e := NewEngine(net, Config{})
	e.AddFlow([]int{0}, core.ProportionalFair(), 8<<20, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 8<<20, 0)
	e.AddFlow([]int{1}, core.ProportionalFair(), 8<<20, 1e-3)
	e.AddFlow([]int{1}, core.ProportionalFair(), 8<<20, 1e-3)
	e.Run(2e-3) // both pairs admitted and solved, nothing finished yet
	s := e.Stats()
	if s.Allocs != 2 || s.SolvedFlows != 4 || s.MaxComponent != 2 {
		t.Errorf("stats = %+v, want 2 allocs × 2 flows, max component 2", s)
	}
	// First solve saw 2 active flows, the second 4: a whole-set engine
	// would have paid 6.
	if s.FullSolveFlows != 6 {
		t.Errorf("FullSolveFlows = %d, want 6", s.FullSolveFlows)
	}
}

// TestStrandedNeighborElision: a departure that leaves exactly one
// flow in its component re-rates that flow with no allocator call —
// the size-one-component generalization of the arrival fast path.
func TestStrandedNeighborElision(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{})
	a := e.AddFlow([]int{0}, core.ProportionalFair(), 10<<20, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.Run(math.Inf(1))
	if got := e.Stats().Allocs; got != 1 {
		t.Errorf("allocs = %d, want 1 (arrival couple only; the departure strands a size-1 component)", got)
	}
	// And the stranded flow's schedule reflects the reclaimed capacity:
	// 1 MB shared at 5G each, then A alone at 10G.
	wantB := float64(1<<20) * 8 / 5e9
	wantA := wantB + float64(10<<20-1<<20)*8/10e9
	if !almostEq(a.Finish, wantA, 1e-9) {
		t.Errorf("A finish = %v, want %v", a.Finish, wantA)
	}
}

// TestIndependenceElision: flows on disjoint links never invoke the
// allocator; an overlapping arrival forces the recomputation and the
// shared rates are exact.
func TestIndependenceElision(t *testing.T) {
	net := fluid.NewNetwork([]float64{10e9, 10e9})
	e := NewEngine(net, Config{})
	a := e.AddFlow([]int{0}, core.ProportionalFair(), 100<<20, 0)
	b := e.AddFlow([]int{1}, core.ProportionalFair(), 1<<20, 0)
	e.Run(1e-3)
	if e.Stats().Allocs != 0 {
		t.Errorf("disjoint flows triggered %d allocs, want 0", e.Stats().Allocs)
	}
	if a.Rate != 10e9 || !b.Done() {
		t.Fatalf("fast-path rates wrong: a=%v b done=%v", a.Rate, b.Done())
	}
	// c overlaps a on link 0: the allocator must run and split it.
	c := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, e.Now())
	e.Step()
	if e.Stats().Allocs == 0 {
		t.Error("overlapping arrival did not trigger an allocation")
	}
	if !almostEq(a.Rate, 5e9, 1e-9) || !almostEq(c.Rate, 5e9, 1e-9) {
		t.Errorf("shared rates %v/%v, want 5G each", a.Rate, c.Rate)
	}
}

// TestBatchStats: synchronized arrivals on disjoint links form one
// batch of several disjoint components, and the engine's batch
// telemetry records it.
func TestBatchStats(t *testing.T) {
	// Four coupled 20-flow bundles at one instant, each on its own
	// link: one batch, four disjoint components. The four links carry
	// identical size ladders, so completions collide into four-wide
	// batches too.
	e := NewEngine(fluid.NewNetwork([]float64{10e9, 10e9, 10e9, 10e9}), Config{})
	for l := 0; l < 4; l++ {
		for i := 0; i < 20; i++ {
			e.AddFlow([]int{l}, core.ProportionalFair(), int64(1+i)<<20, 1e-3)
		}
	}
	e.Run(math.Inf(1))
	s := e.Stats()
	if s.Batches == 0 || s.BatchComponents < s.Batches {
		t.Fatalf("batch telemetry not populated: %+v", s)
	}
	if s.MaxBatchComponents != 4 {
		t.Errorf("MaxBatchComponents = %d, want 4", s.MaxBatchComponents)
	}
	// Every batch is four components wide; the last one leaves four
	// lone flows, which are elided rather than solved.
	if s.BatchComponents != 4*s.Batches || s.Allocs != s.BatchComponents-4 {
		t.Errorf("batch shape: %d components over %d batches, %d solves", s.BatchComponents, s.Batches, s.Allocs)
	}
}

// buildPodBursts adds a synchronized pod-local burst schedule to an
// engine on a k=4 fat-tree: at each grid instant every pod receives a
// fan-in burst among its own hosts, so a batch floods into one
// component per pod and
// equal-size bursts complete in shared instants. withInterPod mixes in
// cross-pod flows that merge pods into one component.
func buildPodBursts(e scheduler, ft *fluid.FatTree, withInterPod bool, seed uint64) []*fluid.Flow {
	rng := sim.NewRNG(seed)
	perPod := ft.Hosts() / ft.K
	var fs []*fluid.Flow
	for q := 0; q < 12; q++ {
		at := float64(q) * 500e-6
		for p := 0; p < ft.K; p++ {
			base := p * perPod
			dst := base + rng.Intn(perPod)
			size := int64(1+rng.Intn(4)) * (256 << 10)
			for i := 0; i < 8; i++ {
				src := base + rng.Intn(perPod-1)
				if src >= dst {
					src++
				}
				path := ft.Route(src, dst, rng.Intn(4))
				fs = append(fs, e.AddFlow(path, core.ProportionalFair(), size, at))
			}
		}
		if withInterPod {
			src := rng.Intn(perPod)
			dst := perPod + rng.Intn(perPod)
			path := ft.Route(src, dst, rng.Intn(4))
			fs = append(fs, e.AddFlow(path, core.ProportionalFair(), 1<<20, at))
		}
	}
	return fs
}

// TestPodBurstsMatchReference: the pod-local burst workload — wide
// same-instant batches of several components, colliding
// completions, and (with inter-pod flows) components that merge and
// split across batches — finishes as internal/refsim says it does.
func TestPodBurstsMatchReference(t *testing.T) {
	for _, interPod := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			ft := fluid.NewFatTree(4, 10e9)
			le := NewEngine(ft.Net, Config{})
			lf := buildPodBursts(le, ft, interPod, seed)
			runChecked(le, math.Inf(1))
			rt := fluid.NewFatTree(4, 10e9)
			ref := refsim.New(rt.Net, fluid.NewWaterFill())
			rf := buildPodBursts(ref, rt, interPod, seed)
			ref.Run(math.Inf(1))
			assertMatchesReference(t, fmt.Sprintf("pod-bursts interPod=%v", interPod), seed,
				finishTimes(lf), finishTimes(rf))
			if s := le.Stats(); s.MaxBatchComponents < 2 {
				t.Errorf("interPod=%v seed %d: pod bursts never batched two components: %+v", interPod, seed, s)
			}
		}
	}
}

// countingAlloc decorates an allocator with solve counts and nothing
// else: it has no Prime and no Worker.
type countingAlloc struct {
	fluid.SubsetAllocator
	calls, flows int
}

func (c *countingAlloc) AllocateSubset(net *fluid.Network, flows []*fluid.Flow, rates []float64) {
	c.calls++
	c.flows += len(flows)
	c.SubsetAllocator.AllocateSubset(net, flows, rates)
}

// primedCountingAlloc adds the priming seam, counting its use.
type primedCountingAlloc struct {
	countingAlloc
	primes, workers int
}

func (p *primedCountingAlloc) Prime(net *fluid.Network) {
	p.primes++
	p.SubsetAllocator.(fluid.ParallelSubsetAllocator).Prime(net)
}

func (p *primedCountingAlloc) Worker() fluid.SubsetAllocator {
	p.workers++
	return p
}

// TestSolvesGoThroughTheConfiguredAllocator: the engine solves every
// component on the allocator object it was configured with — one
// AllocateSubset per counted solve, covering the counted flows — after
// priming it exactly once when it can be primed, and never asks it for
// a Worker view. Priming decides XWI's cold prices, so the primed
// decorator must reproduce the bare allocator's completions bit for
// bit.
func TestSolvesGoThroughTheConfiguredAllocator(t *testing.T) {
	mkXWI := func() *fluid.XWI { return &fluid.XWI{IterPerEpoch: 64, Tol: 1e-6} }
	_, bf := runDense(Config{Allocator: mkXWI()}, 3)

	plain := &countingAlloc{SubsetAllocator: fluid.NewWaterFill()}
	e, _ := runDense(Config{Allocator: plain}, 3)
	if s := e.Stats(); s.Allocs == 0 || plain.calls != s.Allocs || plain.flows != s.SolvedFlows {
		t.Errorf("unprimed decorator saw %d solves over %d flows, Stats has %d over %d",
			plain.calls, plain.flows, s.Allocs, s.SolvedFlows)
	}

	primed := &primedCountingAlloc{countingAlloc: countingAlloc{SubsetAllocator: mkXWI()}}
	e, pf := runDense(Config{Allocator: primed}, 3)
	if s := e.Stats(); s.Allocs == 0 || primed.calls != s.Allocs || primed.flows != s.SolvedFlows {
		t.Errorf("primed decorator saw %d solves over %d flows, Stats has %d over %d",
			primed.calls, primed.flows, s.Allocs, s.SolvedFlows)
	}
	if primed.primes != 1 || primed.workers != 0 {
		t.Errorf("Prime called %d times and Worker %d, want 1 and 0", primed.primes, primed.workers)
	}
	assertSameCompletions(t, "decorated-vs-bare xwi", 3, pf, bf)
}
