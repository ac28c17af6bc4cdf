package oracle

import (
	"math"
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

// TestPreparedMaxMinMatchesOneShot: one Prepare followed by K Fills
// with fresh weight vectors gives, bit for bit, the rates of K one-shot
// WeightedMaxMin calls — on one workspace carried across problems that
// shrink and then grow (stale stamp/slot/count state), and across the
// degenerate inputs: weights ≤ 0 (the 1e-12 substitution),
// zero-capacity links, flows sharing every link, an empty flow set.
func TestPreparedMaxMinMatchesOneShot(t *testing.T) {
	rng := sim.NewRNG(11)
	type problem struct {
		capacity []float64
		paths    [][]int
	}
	randomProblem := func(nf, nl int) problem {
		c := make([]float64, nl)
		for l := range c {
			c[l] = (1 + 39*rng.Float64()) * gbps
			if rng.Intn(8) == 0 {
				c[l] = 0
			}
		}
		return problem{c, randomPaths(rng, nf, nl)}
	}
	problems := []problem{
		randomProblem(40, 24),
		// Shrink on the same links, then shrink the network too.
		randomProblem(3, 24),
		randomProblem(1, 5),
		// Empty flow set; flows sharing every link; every link dead.
		{[]float64{10 * gbps, 0, 5 * gbps}, nil},
		{[]float64{10 * gbps, 4 * gbps}, [][]int{{0, 1}, {0, 1}, {1, 0}}},
		{[]float64{0, 0}, [][]int{{0}, {0, 1}, {1}}},
		// Grow past every earlier buffer, then back.
		randomProblem(120, 60),
		randomProblem(40, 24),
	}
	var ws MaxMinWorkspace
	var x []float64
	for pi, p := range problems {
		ws.Prepare(p.capacity, p.paths)
		for k := 0; k < 6; k++ {
			w := make([]float64, len(p.paths))
			for i := range w {
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
// allocation counts: Fill allocates nothing, and a Solve's allocation
// count does not depend on how many iterations it runs.
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
}
