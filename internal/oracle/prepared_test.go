package oracle

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/sim"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randomPaths draws nf paths of 1–4 distinct links over nl links.
func randomPaths(rng *sim.RNG, nf, nl int) [][]int {
	paths := make([][]int, nf)
	for i := range paths {
		perm := rng.Perm(nl)
		paths[i] = perm[:1+rng.Intn(min(4, nl))]
	}
	return paths
}

// fatTreePaths routes nf random host pairs over a k=4 fat-tree (16
// hosts, 4 pods of 2 edge and 2 aggregation switches, 4 cores) with one
// random core pick each, numbering links in first-use order: host
// up/down links, edge↔agg and agg↔core hops in each direction. A sparse
// flow set crosses mostly private middle hops, so links with the same
// crossing flows are common.
func fatTreePaths(rng *sim.RNG, nf int) (paths [][]int, nl int) {
	ids := map[[4]int]int{}
	id := func(kind, a, b, c int) int {
		k := [4]int{kind, a, b, c}
		if _, ok := ids[k]; !ok {
			ids[k] = len(ids)
		}
		return ids[k]
	}
	paths = make([][]int, nf)
	for i := range paths {
		src, dst := rng.Intn(16), rng.Intn(16)
		core := rng.Intn(4)
		agg := core / 2
		se, de := src/2, dst/2 // edge switches; pods are edge/2
		p := []int{id(0, src, 0, 0)}
		switch {
		case se == de:
		case se/2 == de/2:
			p = append(p, id(1, se, agg, 0), id(2, de/2, agg, de))
		default:
			p = append(p, id(1, se, agg, 0), id(3, se/2, agg, core),
				id(4, core, de/2, 0), id(2, de/2, agg, de))
		}
		paths[i] = append(p, id(5, dst, 0, 0))
	}
	return paths, len(ids)
}

// TestPreparedMaxMinMatchesOneShot: one Prepare followed by K Fills
// with fresh weight vectors gives, bit for bit, the rates of K one-shot
// WeightedMaxMin calls — on one workspace carried across problems that
// shrink and then grow (stale stamp/slot/count state), and across the
// degenerate inputs: weights ≤ 0 (the 1e-12 substitution),
// zero-capacity links, flows sharing every link, an empty flow set. The
// later problems have many links that carry the same flows at the same
// capacity (equal capacities, fat-tree paths with private middle hops,
// a path that crosses one link twice), links with equal flow sets on
// different capacities or on +0 and −0, NaN capacities, and an exact
// tie between two such sets of links whose members interleave in
// first-touch order.
func TestPreparedMaxMinMatchesOneShot(t *testing.T) {
	rng := sim.NewRNG(11)
	type problem struct {
		capacity []float64
		paths    [][]int
		// weights are tried before the random vectors.
		weights [][]float64
	}
	randomProblem := func(nf, nl int) problem {
		c := make([]float64, nl)
		for l := range c {
			c[l] = (1 + 39*rng.Float64()) * gbps
			if rng.Intn(8) == 0 {
				c[l] = 0
			}
		}
		return problem{c, randomPaths(rng, nf, nl), nil}
	}
	// paletteProblem draws capacities from {10, 10, 40} Gbps.
	paletteProblem := func(paths [][]int, nl int) problem {
		c := make([]float64, nl)
		for l := range c {
			c[l] = 10 * gbps
			if rng.Intn(3) == 0 {
				c[l] = 40 * gbps
			}
		}
		return problem{c, paths, nil}
	}
	equal := func(nl int, v float64) []float64 {
		c := make([]float64, nl)
		for l := range c {
			c[l] = v
		}
		return c
	}
	negZero, nan := math.Copysign(0, -1), math.NaN()
	problems := []problem{
		randomProblem(40, 24),
		// Shrink on the same links, then shrink the network too.
		randomProblem(3, 24),
		randomProblem(1, 5),
		// Empty flow set; flows sharing every link; every link dead.
		{[]float64{10 * gbps, 0, 5 * gbps}, nil, nil},
		{[]float64{10 * gbps, 4 * gbps}, [][]int{{0, 1}, {0, 1}, {1, 0}}, nil},
		{[]float64{0, 0}, [][]int{{0}, {0, 1}, {1}}, nil},
		// Grow past every earlier buffer, then back.
		randomProblem(120, 60),
		randomProblem(40, 24),
		// All capacities equal: links 0/1 and 4/5 carry the same flows;
		// links 0 and 3 share their first flow and their count only.
		{equal(8, 10*gbps), [][]int{{0, 1, 2}, {0, 1, 3}, {4, 5}, {4, 5, 6, 3}, {7}}, nil},
		{equal(2, 10*gbps), [][]int{{0, 1}, {0}, {1}}, nil},
		{equal(30, 10*gbps), randomPaths(rng, 5, 30), nil},
		// Fat-tree paths, sparse and dense, on one capacity and on two.
		func() problem { p, nl := fatTreePaths(rng, 3); return problem{equal(nl, 10*gbps), p, nil} }(),
		func() problem { p, nl := fatTreePaths(rng, 8); return problem{equal(nl, 10*gbps), p, nil} }(),
		func() problem { p, nl := fatTreePaths(rng, 6); return paletteProblem(p, nl) }(),
		func() problem { p, nl := fatTreePaths(rng, 40); return paletteProblem(p, nl) }(),
		// A path crossing one link twice: links 0 and 1 carry flow 0
		// twice each; link 2 carries flows 0 and 1 once, link 3 flow 0
		// twice and flow 1 once.
		{equal(4, 10*gbps), [][]int{{0, 1, 0, 1, 2, 3, 3}, {2, 3}}, nil},
		// Equal flow sets on different capacities (the larger first):
		// never one set of links.
		{[]float64{10 * gbps, 5 * gbps, 10 * gbps}, [][]int{{0, 1, 2}, {0, 1, 2}}, nil},
		{[]float64{5 * gbps, 10 * gbps, 5 * gbps, 10 * gbps}, [][]int{{1, 0, 3, 2}, {1, 0, 3, 2}, {3}}, nil},
		// +0 and −0 capacities, in both first-touch orders, and NaN ones.
		{[]float64{0, negZero, 10 * gbps}, [][]int{{0, 1, 2}, {0, 1}}, nil},
		{[]float64{0, negZero, 10 * gbps}, [][]int{{1, 0, 2}, {1, 0}}, nil},
		{[]float64{nan, nan, 10 * gbps, negZero}, [][]int{{0, 1}, {0, 1, 2}, {2}, {3, 0}, {3, 0}}, nil},
		// A tie at equal share between links {0, 2} (flows 0, 1) and
		// links {1, 3} (flows 0, 2), first touched in the order 0, 1, 2, 3.
		{equal(4, 10*gbps), [][]int{{0, 1, 2, 3}, {0, 2}, {1, 3}},
			[][]float64{{1, 1, 1}, {2, 1, 1}, {1, 3, 3}, {0, 1, 1}}},
		{[]float64{10 * gbps, 20 * gbps, 10 * gbps, 20 * gbps}, [][]int{{0, 1, 2, 3}, {0, 2}, {1, 3}, {1, 3}},
			[][]float64{{1, 1, 1, 1}, {1, 1, 0.5, 0.5}}},
	}
	var ws MaxMinWorkspace
	var x []float64
	for pi, p := range problems {
		ws.Prepare(p.capacity, p.paths)
		for k := 0; k < len(p.weights)+6; k++ {
			w := make([]float64, len(p.paths))
			for i := range w {
				if k < len(p.weights) {
					w[i] = p.weights[k][i]
					continue
				}
				switch rng.Intn(6) {
				case 0:
					w[i] = 0
				case 1:
					w[i] = -rng.Float64()
				default:
					w[i] = 1e-3 + 100*rng.Float64()
				}
			}
			want := WeightedMaxMin(p.capacity, p.paths, w)
			x = ws.Fill(w, x)
			if !bitsEqual(x, want) {
				t.Fatalf("problem %d fill %d: prepared rates %v, one-shot %v", pi, k, x, want)
			}
		}
		// The one-shot entry on the same (now stale-prepared) workspace
		// is unaffected by what Prepare left behind.
		w := make([]float64, len(p.paths))
		for i := range w {
			w[i] = 1 + rng.Float64()
		}
		if got, want := ws.WeightedMaxMin(p.capacity, p.paths, w, nil), WeightedMaxMin(p.capacity, p.paths, w); !bitsEqual(got, want) {
			t.Fatalf("problem %d: one-shot on a used workspace %v, fresh %v", pi, got, want)
		}
	}
}

// TestPreparedLinks: Links is the first-touch order and Touches its
// membership test.
func TestPreparedLinks(t *testing.T) {
	var ws MaxMinWorkspace
	ws.Prepare(make([]float64, 6), [][]int{{4, 1}, {1, 5}, {4}})
	if got, want := ws.Links(), []int{4, 1, 5}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Links = %v, want %v", got, want)
	}
	for l, want := range []bool{false, true, false, false, true, true} {
		if ws.Touches(l) != want {
			t.Errorf("Touches(%d) = %v, want %v", l, !want, want)
		}
	}
}

// TestPreparedClasses: the representatives Prepare picks are exactly
// the first-touched link of each group of touched links with the same
// capacity bits and the same crossing flows (with multiplicity), each
// restricted path is its path without the other links, and Fill reads
// and writes the state of representatives only — a later member's
// residual, weight sum and count stay as poisoned before the Fills —
// while Links and Touches still report every touched link.
func TestPreparedClasses(t *testing.T) {
	rng := sim.NewRNG(9)
	for trial := 0; trial < 20; trial++ {
		paths, nl := fatTreePaths(rng, 1+rng.Intn(12))
		capacity := make([]float64, nl)
		for l := range capacity {
			capacity[l] = []float64{10 * gbps, 40 * gbps, math.Copysign(0, -1)}[rng.Intn(3)]
		}
		var ws MaxMinWorkspace
		ws.Prepare(capacity, paths)

		key := map[int]string{}
		for i, p := range paths {
			for _, l := range p {
				key[l] += fmt.Sprintf(" %d", i)
			}
		}
		var wantReps []int
		seen := map[string]bool{}
		for _, l := range ws.Links() {
			k := fmt.Sprintf("%x:%s", math.Float64bits(capacity[l]), key[l])
			if !seen[k] {
				seen[k] = true
				wantReps = append(wantReps, l)
			}
		}
		if !slices.Equal(ws.reps, wantReps) {
			t.Fatalf("trial %d: representatives %v, want %v", trial, ws.reps, wantReps)
		}
		for i, p := range paths {
			want := slices.DeleteFunc(slices.Clone(p), func(l int) bool { return !slices.Contains(wantReps, l) })
			if !slices.Equal(ws.rpaths[i], want) {
				t.Fatalf("trial %d: flow %d's restricted path %v, want %v", trial, i, ws.rpaths[i], want)
			}
		}

		for _, l := range ws.Links() {
			if !ws.Touches(l) {
				t.Fatalf("trial %d: Touches(%d) = false for a touched link", trial, l)
			}
			if !slices.Contains(wantReps, l) {
				ws.rem[l], ws.activeWeight[l], ws.activeCount[l] = math.NaN(), math.NaN(), -7
			}
		}
		for k := 0; k < 3; k++ {
			w := make([]float64, len(paths))
			for i := range w {
				w[i] = float64(rng.Intn(4))
			}
			if got, want := ws.Fill(w, nil), WeightedMaxMin(capacity, paths, w); !bitsEqual(got, want) {
				t.Fatalf("trial %d: Fill %v, one-shot %v", trial, got, want)
			}
		}
		for _, l := range ws.Links() {
			if !slices.Contains(wantReps, l) && (!math.IsNaN(ws.rem[l]) || !math.IsNaN(ws.activeWeight[l]) || ws.activeCount[l] != -7) {
				t.Fatalf("trial %d: Fill wrote the state of link %d, which is not a representative", trial, l)
			}
		}
	}
}

// solveProblem builds a random NUM problem with a mix of singleton
// flows and multipath groups.
func solveProblem(rng *sim.RNG, nf, nl int) *core.Problem {
	c := make([]float64, nl)
	for l := range c {
		c[l] = (1 + 39*rng.Float64()) * gbps
	}
	p := core.NewProblem(c)
	for _, path := range randomPaths(rng, nf, nl) {
		if rng.Intn(4) == 0 {
			g := p.AddAggregate(core.ProportionalFair())
			p.AddSubflow(g, path)
			p.AddSubflow(g, randomPaths(rng, 1, nl)[0])
			continue
		}
		p.AddFlow(path, core.NewAlphaFair(0.5+2*rng.Float64()))
	}
	return p
}

// TestSolveWorkspaceMatchesFresh: a workspace carried across a
// sequence of problems — warm- and cold-started, shrinking and growing,
// with prices left on links the next problem does not touch (the idle
// live links) — returns bit for bit what a fresh Solve does.
func TestSolveWorkspaceMatchesFresh(t *testing.T) {
	rng := sim.NewRNG(5)
	const nl = 30
	var ws SolveWorkspace
	var warm []float64
	for step, nf := range []int{12, 3, 1, 25, 2, 12} {
		p := solveProblem(rng, nf, nl)
		opts := SolveOptions{MaxIter: 400, Tol: 1e-7}
		if step%3 != 2 {
			opts.InitPrices = warm // steps 2 and 5 start cold
		}
		want := Solve(p, opts)
		got := ws.Solve(p, opts)
		if !bitsEqual(got.Rates, want.Rates) || !bitsEqual(got.Prices, want.Prices) ||
			got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Fatalf("step %d (%d flows): workspace solve differs from a fresh one\n got %+v\nwant %+v", step, nf, got, want)
		}
		// Mid-flight duals, not the projected ones: stop short so links
		// this problem leaves keep non-zero prices for the next.
		opts.MaxIter = 7
		warm = append(warm[:0], Solve(p, opts).Prices...)
		for l := 0; l < nl; l += 7 {
			warm[l] = 0.25 // and some that no flow of the next problem may cross
		}
	}
}

// TestKernelsAllocateNothingPerIteration pins the two hoists as
// allocation counts: Fill allocates nothing, neither does a warm
// Prepare followed by a Fill (on random paths and on fat-tree paths,
// where many links carry the same flows), and a Solve's allocation
// count does not depend on how many iterations it runs; a warm star
// Solve and a warm dual-Newton Solve allocate nothing.
func TestKernelsAllocateNothingPerIteration(t *testing.T) {
	rng := sim.NewRNG(3)
	p := solveProblem(rng, 30, 40)
	paths := make([][]int, len(p.Flows))
	w := make([]float64, len(p.Flows))
	for i, f := range p.Flows {
		paths[i] = f.Links
		w[i] = 1 + rng.Float64()
	}
	var mm MaxMinWorkspace
	mm.Prepare(p.Capacity, paths)
	x := mm.Fill(w, nil)
	if n := testing.AllocsPerRun(50, func() { mm.Fill(w, x) }); n != 0 {
		t.Errorf("Fill allocates %v times per call, want 0", n)
	}
	ftPaths, nl := fatTreePaths(rng, len(w))
	ftCap := make([]float64, nl)
	for l := range ftCap {
		ftCap[l] = 10 * gbps
	}
	for _, pr := range []struct {
		capacity []float64
		paths    [][]int
	}{{p.Capacity, paths}, {ftCap, ftPaths}} {
		mm.Prepare(pr.capacity, pr.paths)
		mm.Fill(w, x)
		if n := testing.AllocsPerRun(50, func() { mm.Prepare(pr.capacity, pr.paths); mm.Fill(w, x) }); n != 0 {
			t.Errorf("a warm Prepare + Fill allocates %v times per call, want 0", n)
		}
	}

	// Tol far below reach, so the solves run to MaxIter (or to a rate
	// vector that stopped moving in its last bit, far past 5).
	solveAllocs := func(maxIter int) (allocs float64, iters int) {
		allocs = testing.AllocsPerRun(5, func() {
			iters = Solve(p, SolveOptions{MaxIter: maxIter, Tol: 1e-300}).Iterations
		})
		return allocs, iters
	}
	short, _ := solveAllocs(5)
	long, iters := solveAllocs(500)
	if iters < 100 {
		t.Fatalf("the long solve stopped after %d iterations; the comparison needs ≥ 100", iters)
	}
	if short != long {
		t.Errorf("Solve allocates %v times at 5 iterations and %v at %d: something allocates per iteration", short, long, iters)
	}
	var ws SolveWorkspace
	ws.Solve(p, SolveOptions{MaxIter: 5})
	if n := testing.AllocsPerRun(5, func() { ws.Solve(p, SolveOptions{MaxIter: 50}) }); n != 0 {
		t.Errorf("a warm SolveWorkspace allocates %v times per solve, want 0", n)
	}
	star := core.NewProblem(make([]float64, 9))
	for i := range 8 {
		star.Capacity[i+1] = 10 * gbps
		star.AddFlow([]int{0, i + 1}, core.FCTMin(int64(1000*(i+1)), 0.125))
	}
	star.Capacity[0] = 10 * gbps
	if res := ws.Solve(star, SolveOptions{}); res.Iterations != 1 {
		t.Fatalf("the star took %d iterations, want the closed form", res.Iterations)
	}
	if n := testing.AllocsPerRun(5, func() { ws.Solve(star, SolveOptions{}) }); n != 0 {
		t.Errorf("a warm star Solve allocates %v times, want 0", n)
	}
	// A chain — flow i shares a link with flow i+1 — is the dual Newton's,
	// warm-started from its own prices.
	chain := core.NewProblem(make([]float64, 17))
	for i := range 8 {
		chain.Capacity[2*i], chain.Capacity[2*i+1] = 10*gbps, (5+float64(i))*gbps
		chain.AddFlow([]int{2 * i, 2*i + 1, 2*i + 2}, core.FCTMin(int64(1000*(i+1)), 0.125))
	}
	chain.Capacity[16] = 10 * gbps
	init := append([]float64(nil), ws.Solve(chain, SolveOptions{}).Prices...)
	if ws.route != routeNewton {
		t.Fatalf("the chain took route %d, want the Newton's", ws.route)
	}
	if n := testing.AllocsPerRun(5, func() { ws.Solve(chain, SolveOptions{InitPrices: init}) }); n != 0 {
		t.Errorf("a warm Newton Solve allocates %v times, want 0", n)
	}
}
