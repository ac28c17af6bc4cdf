package oracle

import (
	"math"
	"testing"

	"numfabric/internal/cert"
	"numfabric/internal/core"
	"numfabric/internal/sim"
)

// randomNonStar draws a problem the dual Newton takes and the closed form
// does not: 3–8 single-flow groups in a chain (flow i shares a link with
// flow i+1), up to two more links over random subsets of the flows, up
// to two private links per flow (some bottlenecks below the flow's
// share), and on some draws the chain's first link again at a larger
// capacity (the same flow list); plus an untouched link. The utilities
// share one α ∈ {0.125, 0.5, 1, 2}: FCTMin at α = 0.125 (sizes within 2×
// of each other, or weights at a clamp: all at 2^-1022, all at
// MaxFloat64, or the two mixed), weighted otherwise. clamped reports a
// clamp, floor one with flows at 2^-1022.
func randomNonStar(rng *sim.RNG) (p *core.Problem, clamped, floor bool) {
	nf := 3 + rng.Intn(6)
	C := (1 + 39*rng.Float64()) * 1e9
	p = core.NewProblem(nil)
	link := func(c float64) int {
		p.Capacity = append(p.Capacity, c)
		return len(p.Capacity) - 1
	}
	paths := make([][]int, nf)
	for i := 0; i+1 < nf; i++ {
		l := link(C * (0.5 + rng.Float64()))
		paths[i], paths[i+1] = append(paths[i], l), append(paths[i+1], l)
	}
	for n := rng.Intn(3); n > 0; n-- {
		l := link(C * (0.5 + rng.Float64()))
		for i := range paths {
			if rng.Intn(2) == 0 {
				paths[i] = append(paths[i], l)
			}
		}
	}
	if rng.Intn(2) == 0 {
		l := link(p.Capacity[0] * (1.5 + rng.Float64()))
		paths[0], paths[1] = append(paths[0], l), append(paths[1], l)
	}
	for i := range paths {
		for n := rng.Intn(3); n > 0; n-- {
			paths[i] = append(paths[i], link(C/float64(nf)*(0.2+2*rng.Float64())))
		}
		rng.Shuffle(len(paths[i]), func(a, b int) { paths[i][a], paths[i][b] = paths[i][b], paths[i][a] })
	}
	alpha := []float64{0.125, 0.5, 1, 2}[rng.Intn(4)]
	clamp := -1 // the clamp every flow takes; 2: either, per flow
	if clamped = alpha == 0.125 && rng.Intn(3) == 0; clamped {
		clamp = rng.Intn(3)
	}
	clamps := [2]core.AlphaFair{weightFloor, weightCeil}
	for _, path := range paths {
		var u core.AlphaFair
		switch {
		case clamp == 2:
			u = clamps[rng.Intn(2)]
		case clamped:
			u = clamps[clamp]
		case alpha == 0.125:
			u = core.FCTMin(int64(1_000_000+rng.Intn(1_000_000)), 0.125)
		default:
			u = core.NewWeightedAlphaFair(alpha, 0.25+4*rng.Float64())
		}
		p.AddFlow(path, u)
	}
	link(C)
	return p, clamped, clamp == 0 || clamp == 2
}

// withoutFlow is p less flow f, over the same links.
func withoutFlow(p *core.Problem, f int) *core.Problem {
	q := core.NewProblem(p.Capacity)
	for i, fl := range p.Flows {
		if i != f {
			q.AddFlow(fl.Links, p.Groups[fl.Group].U)
		}
	}
	return q
}

// TestNewtonMatchesIteration holds the dual Newton to the xWI iteration
// run to Tol 1e-12 on 300 random non-stars (randomNonStar), each solved
// cold and then warm from the prices of the problem less one flow (an
// arrival): within 1e-6 of each rate (or of 1e-9 of the largest
// capacity), and certified on every solve — never above a capacity, KKT
// and duality gap within 1e-12. Every one must be the Newton's, none the
// fallback's, except with weights at the 2^-1022 clamp: there the
// utility's own U′ — math.Pow of a subnormal W/x — is not the dual's
// (the Newton checks its stationarity against it), and a light flow's
// path price may have to fall by some 2^256 from where heavier flows
// leave it, which linear steps do not cover within the step cap; those
// may fall back, and the count is logged. At the clamps the iteration
// misses the optimum (its weights live in [1e-3, 100 × the largest
// capacity]), so there the Newton must instead reach at least its total
// utility: at the Newton's prices, a duality gap (cert.Gap) no wider than
// the iteration's rates leave, to 1e-12. Problems one step outside the Newton's domain
// — a dead, NaN or +Inf link, a two-member group, mixed α — take the
// iteration, with no NaN rate.
func TestNewtonMatchesIteration(t *testing.T) {
	rng := sim.NewRNG(35)
	var ws, it SolveWorkspace
	worstRate, worstKKT, worstGap, steps, solves, floorFallbacks := 0.0, 0.0, 0.0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		p, clamped, floor := randomNonStar(rng)
		// Cold, then warm after an arrival: from the prices of p less a
		// flow (which may be a star).
		init := ws.Solve(withoutFlow(p, rng.Intn(len(p.Flows))), SolveOptions{}).Prices
		init = append([]float64(nil), init...)
		for step, opts := range []SolveOptions{{}, {InitPrices: init}} {
			q, res := p, ws.Solve(p, opts)
			if floor && ws.route == routeFallback {
				floorFallbacks++
				continue
			}
			if ws.route != routeNewton {
				t.Fatalf("trial %d step %d: route %d, want the Newton's\n%v", trial, step, ws.route, q.Flows)
			}
			solves, steps = solves+1, steps+res.Iterations
			feas, kkt, gap := cert.Feasibility(q, res.Rates), cert.KKT(q, res.Rates, res.Prices), cert.Gap(q, res.Rates, res.Prices)
			worstKKT, worstGap = max(worstKKT, kkt), max(worstGap, gap)
			if feas > 0 || kkt > 1e-12 || gap > 1e-12 {
				t.Errorf("trial %d step %d: feasibility %.3g (want ≤ 0), KKT %.3g, gap %.3g (want ≤ 1e-12)", trial, step, feas, kkt, gap)
			}
			opts := SolveOptions{Tol: 1e-12, MaxIter: 100_000}
			if clamped {
				opts.MaxIter = 500
			}
			ref := it.iterate(q, opts.withDefaults(), it.prepare(q))
			if clamped {
				if g, h := cert.Gap(q, res.Rates, res.Prices), cert.Gap(q, ref.Rates, res.Prices); !(g <= h+1e-12) {
					t.Errorf("trial %d step %d: duality gap %.3g by Newton, %.3g iterated", trial, step, g, h)
				}
				continue
			}
			scale := 0.0
			for _, c := range q.Capacity {
				scale = max(scale, c)
			}
			for i, x := range res.Rates {
				d := math.Abs(x-ref.Rates[i]) / max(math.Abs(ref.Rates[i]), 1e-9*scale)
				worstRate = max(worstRate, d)
				if d > 1e-6 {
					t.Errorf("trial %d step %d flow %d: Newton %v, iteration %v (%d iterations): %.3g relative", trial, step, i, x, ref.Rates[i], ref.Iterations, d)
				}
			}
		}
	}
	t.Logf("%d Newton solves in %.1f steps each (%d at the 2^-1022 clamp fell back); worst rate difference %.3g, KKT %.3g, gap %.3g",
		solves, float64(steps)/float64(solves), floorFallbacks, worstRate, worstKKT, worstGap)

	chain := func(c1 float64) *core.Problem {
		p := core.NewProblem([]float64{10 * gbps, c1, 10 * gbps, 4 * gbps})
		p.AddFlow([]int{0, 1}, core.ProportionalFair())
		p.AddFlow([]int{1, 2}, core.ProportionalFair())
		p.AddFlow([]int{2, 3}, core.ProportionalFair())
		return p
	}
	group := chain(10 * gbps)
	g := group.AddAggregate(core.ProportionalFair())
	group.AddSubflow(g, []int{0})
	group.AddSubflow(g, []int{3})
	mixed := chain(10 * gbps)
	mixed.Groups[1].U = core.NewAlphaFair(2)
	if ws.Solve(chain(10*gbps), SolveOptions{}); ws.route != routeNewton {
		t.Fatalf("the chain itself took route %d, want the Newton's", ws.route)
	}
	for name, p := range map[string]*core.Problem{
		"+0 capacity": chain(0), "-0 capacity": chain(math.Copysign(0, -1)), "NaN capacity": chain(math.NaN()),
		"+Inf capacity": chain(math.Inf(1)), "two-member group": group, "mixed α": mixed,
	} {
		res := ws.Solve(p, SolveOptions{})
		if ws.route != routeIterate {
			t.Errorf("%s: route %d, want the iteration", name, ws.route)
		}
		for _, v := range res.Rates {
			if math.IsNaN(v) {
				t.Errorf("%s: NaN in rates %v", name, res.Rates)
				break
			}
		}
	}
}
