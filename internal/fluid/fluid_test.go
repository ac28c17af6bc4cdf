package fluid

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"numfabric/internal/cert"
	"numfabric/internal/core"
	"numfabric/internal/obs"
	"numfabric/internal/obs/obstest"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
)

// steadyState runs unbounded flows on net under alloc until the rates
// stop moving (or maxEpochs), and returns the final rates in flow
// order.
func steadyState(t *testing.T, net *Network, paths [][]int, utils []core.Utility, alloc Allocator, maxEpochs int) []float64 {
	t.Helper()
	eng := NewEngine(net, Config{Epoch: 100e-6, Allocator: alloc})
	flows := make([]*Flow, len(paths))
	for i := range paths {
		flows[i] = eng.AddFlow(paths[i], utils[i], 0, 0)
	}
	prev := make([]float64, len(flows))
	stable := 0
	for ep := 0; ep < maxEpochs; ep++ {
		eng.Step()
		maxRel := 0.0
		for i, f := range flows {
			den := math.Max(math.Abs(prev[i]), 1)
			maxRel = math.Max(maxRel, math.Abs(f.Rate-prev[i])/den)
			prev[i] = f.Rate
		}
		if ep > 0 && maxRel < 1e-10 {
			stable++
			if stable >= 5 {
				break
			}
		} else {
			stable = 0
		}
	}
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = f.Rate
	}
	return out
}

func assertWithin(t *testing.T, name string, got, want []float64, rel float64) {
	t.Helper()
	scale := 0.0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := range want {
		// A flow the optimum starves (e.g. the large flow under
		// FCT-min) has no meaningful relative error; require the
		// engine to starve it too.
		if want[i] < 1e-6*scale {
			if got[i] > 1e-3*scale {
				t.Errorf("%s: flow %d got %.4g want ~0", name, i, got[i])
			}
			continue
		}
		if math.Abs(got[i]-want[i])/want[i] > rel {
			t.Errorf("%s: flow %d got %.4g want %.4g (>%g%% off)", name, i, got[i], want[i], rel*100)
		}
	}
}

// goldenCase is one canonical topology+utility instance; want is the
// reference optimum from the oracle solvers.
type goldenCase struct {
	name     string
	capacity []float64
	paths    [][]int
	utils    []core.Utility
}

// The Table-1 utility families on the canonical single-link and
// parking-lot topologies.
func goldenCases() []goldenCase {
	tenG := []float64{10e9}
	single := [][]int{{0}, {0}}
	parkingCaps := []float64{10e9, 10e9, 10e9}
	parking := [][]int{{0, 1, 2}, {0}, {1}, {2}}
	pf := func(n int) []core.Utility {
		out := make([]core.Utility, n)
		for i := range out {
			out[i] = core.ProportionalFair()
		}
		return out
	}
	return []goldenCase{
		{"single/alpha1", tenG, single, pf(2)},
		{"single/alpha2", tenG, single,
			[]core.Utility{core.NewAlphaFair(2), core.NewAlphaFair(2)}},
		{"single/weighted-1-3", tenG, single,
			[]core.Utility{core.NewWeightedAlphaFair(1, 1), core.NewWeightedAlphaFair(1, 3)}},
		{"single/fctmin", tenG, single,
			[]core.Utility{core.FCTMin(10<<10, 0.125), core.FCTMin(10<<20, 0.125)}},
		{"parkinglot/alpha1", parkingCaps, parking, pf(4)},
		{"parkinglot/weighted", parkingCaps, parking,
			[]core.Utility{
				core.NewWeightedAlphaFair(1, 2), core.NewWeightedAlphaFair(1, 1),
				core.NewWeightedAlphaFair(1, 1), core.NewWeightedAlphaFair(1, 1)}},
	}
}

func oracleOptimum(c goldenCase) []float64 {
	p := core.NewProblem(c.capacity)
	for i, path := range c.paths {
		p.AddFlow(path, c.utils[i])
	}
	return oracle.Solve(p, oracle.SolveOptions{}).Rates
}

// TestXWIGolden: the xWI allocator's steady state matches the oracle
// NUM optimum within 2% on every golden case.
func TestXWIGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			net := NewNetwork(c.capacity)
			got := steadyState(t, net, c.paths, c.utils, &XWI{IterPerEpoch: 4}, 8000)
			assertWithin(t, c.name, got, oracleOptimum(c), 0.02)
		})
	}
}

// TestDGDGolden: the DGD allocator's steady state matches the oracle
// NUM optimum within 2%.
func TestDGDGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			net := NewNetwork(c.capacity)
			got := steadyState(t, net, c.paths, c.utils, &DGD{Gamma: 0.05, IterPerEpoch: 100}, 5000)
			assertWithin(t, c.name, got, oracleOptimum(c), 0.02)
		})
	}
}

// TestWaterFillGolden: WaterFill reproduces the oracle's exact
// max-min (its reference optimum) immediately, and internal/cert
// certifies it max-min fair.
func TestWaterFillGolden(t *testing.T) {
	cases := []struct {
		name     string
		capacity []float64
		paths    [][]int
	}{
		{"single/equal", []float64{10e9}, [][]int{{0}, {0}}},
		{"parkinglot", []float64{10e9, 10e9, 10e9}, [][]int{{0, 1, 2}, {0}, {1}, {2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := NewNetwork(c.capacity)
			eng := NewEngine(net, Config{Allocator: NewWaterFill()})
			flows := make([]*Flow, len(c.paths))
			weights := make([]float64, len(c.paths))
			for i, p := range c.paths {
				flows[i] = eng.AddFlow(p, core.ProportionalFair(), 0, 0)
				weights[i] = 1
			}
			eng.Step()
			want := oracle.WeightedMaxMin(c.capacity, c.paths, weights)
			got := make([]float64, len(flows))
			for i, f := range flows {
				got[i] = f.Rate
			}
			assertWithin(t, c.name, got, want, 1e-9)
			if v := maxMinViolation(net, flows, got); v > 1e-12 {
				t.Errorf("%s: max-min certificate violated by %.3g", c.name, v)
			}
		})
	}
}

// TestFiniteFlowFCT: finite flows complete with sub-epoch precision.
func TestFiniteFlowFCT(t *testing.T) {
	net := NewNetwork([]float64{10e9})
	eng := NewEngine(net, Config{Epoch: 100e-6, Allocator: NewWaterFill()})
	// Two equal flows share the link at 5G each; 10 MB drains in 16 ms.
	const size = 10 << 20
	a := eng.AddFlow([]int{0}, core.ProportionalFair(), size, 0)
	b := eng.AddFlow([]int{0}, core.ProportionalFair(), size, 0)
	eng.Run(math.Inf(1))
	if !a.Done() || !b.Done() {
		t.Fatal("flows did not finish")
	}
	want := float64(size) * 8 / 5e9
	for _, f := range []*Flow{a, b} {
		if math.Abs(f.FCT()-want)/want > 0.01 {
			t.Errorf("FCT got %.6g want %.6g", f.FCT(), want)
		}
	}
}

// TestArrivalDeparture: a later arrival halves the first flow's rate;
// its departure restores it.
func TestArrivalDeparture(t *testing.T) {
	net := NewNetwork([]float64{10e9})
	eng := NewEngine(net, Config{Epoch: 100e-6, Allocator: NewWaterFill()})
	long := eng.AddFlow([]int{0}, core.ProportionalFair(), 0, 0)
	// 1.25 MB at 5 Gb/s drains in 2 ms, arriving at t=5ms.
	short := eng.AddFlow([]int{0}, core.ProportionalFair(), 1250000, 5e-3)
	eng.Run(4e-3)
	if got := long.Rate; math.Abs(got-10e9) > 1 {
		t.Errorf("alone: rate %g want 10G", got)
	}
	eng.Run(6e-3)
	if got := long.Rate; math.Abs(got-5e9) > 1 {
		t.Errorf("shared: rate %g want 5G", got)
	}
	eng.Run(9e-3)
	if !short.Done() {
		t.Fatal("short flow should have finished")
	}
	wantFCT := 1250000 * 8 / 5e9
	if math.Abs(short.FCT()-wantFCT)/wantFCT > 0.05 {
		t.Errorf("short FCT %g want %g", short.FCT(), wantFCT)
	}
	if got := long.Rate; math.Abs(got-10e9) > 1 {
		t.Errorf("after departure: rate %g want 10G", got)
	}
}

// TestIdleGapSkip: the engine jumps over long idle gaps instead of
// stepping through empty epochs.
func TestIdleGapSkip(t *testing.T) {
	net := NewNetwork([]float64{10e9})
	eng := NewEngine(net, Config{Epoch: 100e-6, Allocator: NewWaterFill()})
	f := eng.AddFlow([]int{0}, core.ProportionalFair(), 1250000, 10.0) // 10 s out
	steps := 1
	for eng.Step() {
		steps++
	}
	if !f.Done() {
		t.Fatal("flow did not finish")
	}
	if steps > 50 {
		t.Errorf("took %d epochs; idle gap not skipped", steps)
	}
	if f.Finish < 10.0 {
		t.Errorf("finished at %g, before its arrival", f.Finish)
	}
}

// TestObsMetricsMatchStats is the epoch engine's twin of the leap
// test of the same name: /metrics and /progress, scraped over HTTP while
// the engine steps, are views of its one Stats block. The schedule has
// an idle gap: the Steps that jump it are not epochs, so the events both
// documents serve must end at Stats.Epochs, not at the Step count.
func TestObsMetricsMatchStats(t *testing.T) {
	const epoch = 100e-6
	live := obs.NewLive()
	eng := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{
		Epoch:     epoch,
		Allocator: NewWaterFill(),
		Obs:       obs.Hooks{Live: live},
	})
	var arrivals []float64
	for i := 0; i < 12; i++ {
		at := float64(i%6) * 300e-6
		if i >= 6 {
			at += 20e-3 // long after the first six have drained
		}
		arrivals = append(arrivals, at)
		eng.AddFlow([]int{i % 2}, core.ProportionalFair(), 1250000, at)
	}
	// A Step that ends at t admitted what was due an epoch before t.
	sc := obstest.Start(t, live, func(sim float64) (lo, hi int) {
		for _, at := range arrivals {
			if at <= sim-1.5*epoch {
				lo++
			}
			if at <= sim-0.5*epoch {
				hi++
			}
		}
		return lo, hi
	})
	paced := 0 // every Step, the idle-gap jump included
	for eng.Now() < 22e-3 && eng.Step() {
		if paced++; paced%4 == 0 {
			sc.Tick()
		}
	}
	pacedEpochs := eng.Stats().Epochs
	sc.Stop()
	// No scraper from here on, so each exit the engine takes must
	// publish unasked: Run at a horizon, then Step returning false. (A
	// scrape leaves its request raised; the Step after it answers that,
	// and the ones behind it have nothing to answer.)
	eng.Step()
	eng.Run(eng.Now() + 3*epoch)
	if ps, _ := sc.Exact("Run to a horizon", eng.Stats(), eng.Now()); ps.ActiveFlows == 0 {
		t.Fatal("the horizon left nothing in flight")
	}
	for eng.Step() {
	}
	s := eng.Stats()
	ps, m := sc.Exact("Step returning false", s, eng.Now())

	if s.Allocs == 0 || s.SkippedAllocs == 0 || len(eng.Finished()) != len(arrivals) {
		t.Fatalf("schedule exercised neither solve nor skip: %+v", s)
	}
	if paced < 40 || paced <= pacedEpochs {
		t.Fatalf("%d paced Steps, %d epochs: want ten scrapes or more and an idle-gap Step", paced, pacedEpochs)
	}
	if got, ok := m.Counters["engine.events"]; !ok || got != int64(s.Epochs) {
		t.Errorf("engine.events = %d (served: %v), epochs = %d", got, ok, s.Epochs)
	}
	if got := m.Histograms["engine.component_flows"].Count; got != int64(s.Allocs) {
		t.Errorf("component_flows count = %d, allocs = %d", got, s.Allocs)
	}
	if ps.Finished != len(arrivals) || ps.ActiveFlows != 0 {
		t.Errorf("run-to-completion progress: %+v", ps)
	}
}

// TestFatTreeStructure checks the k-ary fat-tree invariants and route
// well-formedness.
func TestFatTreeStructure(t *testing.T) {
	for _, k := range []int{4, 8} {
		ft := NewFatTree(k, 10e9)
		wantHosts := k * k * k / 4
		if ft.Hosts() != wantHosts {
			t.Fatalf("k=%d: hosts %d want %d", k, ft.Hosts(), wantHosts)
		}
		// Directed links: 2 per host, plus k pods × (k/2)² pairs × 2
		// directions for each of the edge-agg and agg-core tiers
		// (= k³/2 each).
		wantLinks := 2*wantHosts + k*k*k
		if ft.Net.Links() != wantLinks {
			t.Fatalf("k=%d: links %d want %d", k, ft.Net.Links(), wantLinks)
		}
		half := k / 2
		cases := []struct {
			src, dst, hops int
		}{
			{0, 1, 2},             // same edge
			{0, half, 4},          // same pod, different edge
			{0, half * half, 6},   // different pod
			{0, wantHosts - 1, 6}, // far corner
			{wantHosts - 1, 0, 6}, // reverse
			{half - 1, half * half, 6},
		}
		for _, c := range cases {
			for choice := 0; choice < half*half; choice++ {
				path := ft.Route(c.src, c.dst, choice)
				if len(path) != c.hops {
					t.Fatalf("k=%d route %d->%d choice %d: %d hops want %d",
						k, c.src, c.dst, choice, len(path), c.hops)
				}
				seen := map[int]bool{}
				for _, l := range path {
					if l < 0 || l >= ft.Net.Links() {
						t.Fatalf("link %d out of range", l)
					}
					if seen[l] {
						t.Fatalf("route %d->%d repeats link %d", c.src, c.dst, l)
					}
					seen[l] = true
				}
			}
		}
		// Distinct path choices must hit distinct core links.
		p1 := ft.Route(0, half*half, 0)
		p2 := ft.Route(0, half*half, 1)
		same := true
		for i := range p1 {
			if p1[i] != p2[i] {
				same = false
			}
		}
		if same && half > 1 {
			t.Errorf("k=%d: path choices 0 and 1 identical", k)
		}
	}
}

// routeByTier is FatTree.Route as it was written before AppendRoute: one
// slice literal per tier the path climbs to.
func routeByTier(t *FatTree, src, dst, pathChoice int) []int {
	half := t.K / 2
	sp, se := t.locate(src)
	dp, de := t.locate(dst)
	if sp == dp && se == de {
		return []int{t.hostUp[src], t.hostDown[dst]}
	}
	a := pathChoice % half
	if a < 0 {
		a = -a
	}
	if sp == dp {
		return []int{t.hostUp[src], t.edgeUp[sp][se][a], t.edgeDown[sp][a][de], t.hostDown[dst]}
	}
	c := (pathChoice / half) % half
	if c < 0 {
		c = -c
	}
	return []int{t.hostUp[src], t.edgeUp[sp][se][a], t.aggUp[sp][a][c], t.aggDown[dp][a][c], t.edgeDown[dp][a][de], t.hostDown[dst]}
}

// TestFatTreeAppendRouteMatchesRoute: at k = 4 and k = 8, for every
// host pair and every pick (past the path count, and negative),
// AppendRoute appends exactly Route's links after what the buffer held,
// and Route returns the per-tier literal's links in a slice of exactly
// their length — what a caller that keeps a million paths pays for.
func TestFatTreeAppendRouteMatchesRoute(t *testing.T) {
	for _, k := range []int{4, 8} {
		ft := NewFatTree(k, 10e9)
		buf := []int{-1}
		for src := 0; src < ft.Hosts(); src++ {
			for dst := 0; dst < ft.Hosts(); dst++ {
				if src == dst {
					continue
				}
				for pick := -1; pick <= k*k/4; pick++ {
					want := routeByTier(ft, src, dst, pick)
					route := ft.Route(src, dst, pick)
					if !slices.Equal(route, want) || cap(route) != len(want) {
						t.Fatalf("k=%d: Route(%d, %d, %d) = %v (cap %d), want %v", k, src, dst, pick, route, cap(route), want)
					}
					got := ft.AppendRoute(buf[:1], src, dst, pick)
					if got[0] != -1 || !slices.Equal(got[1:], want) {
						t.Fatalf("k=%d: AppendRoute(%d, %d, %d) = %v after the buffer's -1, want %v", k, src, dst, pick, got[1:], want)
					}
					buf = got
				}
			}
		}
	}
}

// TestFatTreeRoutesDeterministic: the ECMP path-set enumeration is
// complete (PathCount paths, one per choice), pairwise distinct, and
// deterministic — identical across calls and across independently
// built trees of the same shape.
func TestFatTreeRoutesDeterministic(t *testing.T) {
	const k = 4
	ft := NewFatTree(k, 10e9)
	half := k / 2
	pairs := []struct {
		src, dst, count int
	}{
		{0, 1, 1},                     // same edge
		{0, half, half},               // same pod, different edge
		{0, half * half, half * half}, // different pod
		{ft.Hosts() - 1, 0, half * half},
	}
	other := NewFatTree(k, 10e9)
	for _, pr := range pairs {
		if got := ft.PathCount(pr.src, pr.dst); got != pr.count {
			t.Fatalf("PathCount(%d,%d) = %d want %d", pr.src, pr.dst, got, pr.count)
		}
		paths := ft.Routes(pr.src, pr.dst)
		if len(paths) != pr.count {
			t.Fatalf("Routes(%d,%d): %d paths want %d", pr.src, pr.dst, len(paths), pr.count)
		}
		seen := map[string]bool{}
		for i, p := range paths {
			// Each enumerated path is the corresponding Route choice.
			want := ft.Route(pr.src, pr.dst, i)
			if len(p) != len(want) {
				t.Fatalf("Routes(%d,%d)[%d] != Route choice %d", pr.src, pr.dst, i, i)
			}
			key := ""
			for j, l := range p {
				if l != want[j] {
					t.Fatalf("Routes(%d,%d)[%d] diverges from Route at hop %d", pr.src, pr.dst, i, j)
				}
				key += fmt.Sprintf("%d,", l)
			}
			if seen[key] {
				t.Errorf("Routes(%d,%d): duplicate path %v", pr.src, pr.dst, p)
			}
			seen[key] = true
		}
		// Re-enumeration and an independently built identical tree
		// produce the same path set.
		again := ft.Routes(pr.src, pr.dst)
		otherPaths := other.Routes(pr.src, pr.dst)
		for i := range paths {
			for j := range paths[i] {
				if again[i][j] != paths[i][j] {
					t.Fatalf("Routes(%d,%d) changed between calls", pr.src, pr.dst)
				}
				if otherPaths[i][j] != paths[i][j] {
					t.Fatalf("Routes(%d,%d) differs across identical trees", pr.src, pr.dst)
				}
			}
		}
	}
}

// TestSweepDeterministic: results are identical regardless of worker
// count, in shard order, and each shard's RNG stream depends only on
// the master seed and shard index.
func TestSweepDeterministic(t *testing.T) {
	job := func(shard int, rng *sim.RNG) [2]uint64 {
		return [2]uint64{uint64(shard), rng.Uint64()}
	}
	withProcs(t, 1)
	serial := Sweep(42, 64, job)
	runtime.GOMAXPROCS(16)
	wide := Sweep(42, 64, job)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("shard %d: serial %v != parallel %v", i, serial[i], wide[i])
		}
		if serial[i][0] != uint64(i) {
			t.Fatalf("result %d out of shard order: %v", i, serial[i])
		}
	}
	other := Sweep(43, 64, job)
	same := 0
	for i := range other {
		if other[i][1] == serial[i][1] {
			same++
		}
	}
	if same == len(other) {
		t.Fatal("different master seeds produced identical streams")
	}
}

// maxMinViolation is cert.MaxMin of the flows' rates, each flow weighted
// 1 as WaterFill weighs it.
func maxMinViolation(net *Network, flows []*Flow, rates []float64) float64 {
	p := core.NewProblem(net.Capacity)
	w := make([]float64, len(flows))
	for i, f := range flows {
		p.AddFlow(f.Links, f.U)
		w[i] = 1
	}
	return cert.MaxMin(p, w, rates)
}
