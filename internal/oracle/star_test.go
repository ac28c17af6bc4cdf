package oracle

import (
	"math"
	"testing"

	"numfabric/internal/cert"
	"numfabric/internal/core"
	"numfabric/internal/sim"
)

// The clamps of core's priority weights (FCTMin, Deadline): a deadline
// this far off underflows v^(-1/ε) and one this near overflows it.
var (
	weightFloor = core.Deadline(1e300, 0.125)
	weightCeil  = core.Deadline(1e-300, 0.125)
)

// randomStar draws a star: 1–8 flows over one or two links every flow
// crosses (none, sometimes, for several flows), each flow with up to two
// private links, some of them bottlenecks below its fair share, some
// tied in c_i/w_i with another flow's, plus an untouched link. The
// utilities share one α: ProportionalFair, weighted α = 2, or FCTMin
// α = 0.125 with weights of sizes within 2× of each other or at the
// clamps (the two clamps' ratio underflows to an exact 0, not to a rate
// below the utilities' 1 b/s floor); clamped reports the last.
func randomStar(rng *sim.RNG) (p *core.Problem, clamped bool) {
	nf := 1 + rng.Intn(8)
	nShared := 1 + rng.Intn(2)
	if nf > 1 && rng.Intn(10) == 0 {
		nShared = 0
	}
	capacity := []float64{}
	link := func(c float64) int {
		capacity = append(capacity, c)
		return len(capacity) - 1
	}
	shared := make([]int, nShared)
	C := (1 + 39*rng.Float64()) * 1e9
	for s := range shared {
		shared[s] = link(C * (1 + float64(s)*rng.Float64()))
	}
	family := rng.Intn(4)
	u := make([]core.AlphaFair, nf)
	for i := range u {
		switch family {
		case 0:
			u[i] = core.ProportionalFair()
		case 1:
			u[i] = core.NewWeightedAlphaFair(2, 0.25+4*rng.Float64())
		case 2:
			u[i] = core.FCTMin(int64(1_000_000+rng.Intn(1_000_000)), 0.125)
		default:
			u[i] = [2]core.AlphaFair{weightFloor, weightCeil}[rng.Intn(2)]
		}
	}
	p = core.NewProblem(nil)
	tie := 0.0 // flow 0's first private capacity
	for i := range u {
		path := []int{}
		for np := rng.Intn(3); len(path) < np || (len(path) == 0 && nShared == 0); {
			c := C / float64(nf) * (0.2 + 2*rng.Float64())
			if tie > 0 && rng.Intn(4) == 0 {
				// A tie in c_i/w_i with flow 0.
				c = tie * u[i].EffectiveWeight() / u[0].EffectiveWeight()
				if !(c > 0) || math.IsInf(c, 1) {
					continue
				}
			}
			if i == 0 && tie == 0 {
				tie = c
			}
			path = append(path, link(c))
		}
		path = append(path, shared...)
		rng.Shuffle(len(path), func(a, b int) { path[a], path[b] = path[b], path[a] })
		p.Capacity = capacity
		p.AddFlow(path, u[i])
	}
	link(C)
	p.Capacity = capacity
	return p, family == 3
}

// TestStarClosedFormMatchesIteration holds the closed form to the xWI
// iteration run to Tol 1e-12 on 600 random stars, within 1e-6 of each
// rate (or of 1e-9 of the largest capacity), and certifies every
// closed-form solve: feasible to 1e-15 and KKT-optimal to 1e-12. At the
// weight clamps the iteration itself misses the optimum — its weights
// live in [1e-3, 100 × the largest capacity], and cert.KKT reads up to 1
// on its result — so there the closed form must instead reach at least
// the iteration's total utility: at the closed form's prices, its
// duality gap (cert.Gap) no wider than the iteration's rates leave, to
// 1e-12 (weak duality: the dual bounds every feasible utility).
func TestStarClosedFormMatchesIteration(t *testing.T) {
	rng := sim.NewRNG(34)
	var ws, it SolveWorkspace
	worstRate, worstFeas, worstKKT, clampedStars := 0.0, 0.0, 0.0, 0
	for trial := 0; trial < 600; trial++ {
		p, clamped := randomStar(rng)
		res := ws.Solve(p, SolveOptions{})
		if res.Iterations != 1 {
			t.Fatalf("trial %d: %d iterations: the star took the iteration", trial, res.Iterations)
		}
		feas, kkt := cert.Feasibility(p, res.Rates), cert.KKT(p, res.Rates, res.Prices)
		worstFeas, worstKKT = max(worstFeas, feas), max(worstKKT, kkt)
		if feas > 1e-15 || kkt > 1e-12 {
			t.Errorf("trial %d: feasibility %.3g (want ≤ 1e-15), KKT %.3g (want ≤ 1e-12)\nrates %v\nprices %v", trial, feas, kkt, res.Rates, res.Prices)
		}
		opts := SolveOptions{Tol: 1e-12, MaxIter: 100_000}
		if clamped {
			// Any max-min allocation is feasible, so the optimum's
			// utility bounds it however far the iteration got.
			opts.MaxIter = 500
		}
		it.prepare(p)
		ref := it.iterate(p, opts.withDefaults())
		if clamped {
			clampedStars++
			if g, h := cert.Gap(p, res.Rates, res.Prices), cert.Gap(p, ref.Rates, res.Prices); !(g <= h+1e-12) {
				t.Errorf("trial %d: duality gap %.3g in closed form, %.3g iterated", trial, g, h)
			}
			continue
		}
		scale := 0.0
		for _, c := range p.Capacity {
			scale = max(scale, c)
		}
		for i, x := range res.Rates {
			d := math.Abs(x-ref.Rates[i]) / max(math.Abs(ref.Rates[i]), 1e-9*scale)
			worstRate = max(worstRate, d)
			if d > 1e-6 {
				t.Errorf("trial %d flow %d: closed form %v, iteration %v (%d iterations): %.3g relative", trial, i, x, ref.Rates[i], ref.Iterations, d)
			}
		}
	}
	t.Logf("worst rate difference %.3g (%d clamped stars held to utility instead), feasibility %.3g, KKT %.3g", worstRate, clampedStars, worstFeas, worstKKT)
}

// TestNonStarsTakeTheIteration: a problem one step away from a star —
// a dead, negative-zero, NaN or infinite capacity on a touched link, a
// two-member group, mixed α, an empty path on the first flow (which the
// cold start must not read a link from) — is left to the iteration, and a link
// crossed by 2 of 3 flows to the dual Newton; no rate comes back NaN, nor
// any price but a NaN capacity's own (the iteration updates that link's
// price, by design).
func TestNonStarsTakeTheIteration(t *testing.T) {
	star := func(c0 float64) *core.Problem {
		p := core.NewProblem([]float64{c0, 4 * gbps, 6 * gbps, 10 * gbps})
		p.AddFlow([]int{1, 0}, core.ProportionalFair())
		p.AddFlow([]int{2, 0}, core.ProportionalFair())
		p.AddFlow([]int{3, 0}, core.ProportionalFair())
		return p
	}
	group := star(10 * gbps)
	g := group.AddAggregate(core.ProportionalFair())
	group.AddSubflow(g, []int{0})
	group.AddSubflow(g, []int{3})
	mixed := star(10 * gbps)
	mixed.Groups[1].U = core.NewAlphaFair(2)
	twoOfThree := star(10 * gbps)
	twoOfThree.Flows[2].Links = []int{3}
	emptyFirst := core.NewProblem([]float64{10 * gbps})
	emptyFirst.AddFlow(nil, core.ProportionalFair())
	emptyFirst.AddFlow([]int{0}, core.ProportionalFair())
	cases := map[string]*core.Problem{
		"+0 capacity":      star(0),
		"-0 capacity":      star(math.Copysign(0, -1)),
		"NaN capacity":     star(math.NaN()),
		"+Inf capacity":    star(math.Inf(1)),
		"two-member group": group,
		"mixed α":          mixed,
		"2 of 3 flows":     twoOfThree,
		"empty first path": emptyFirst,
	}
	var ws SolveWorkspace
	if ws.Solve(star(10*gbps), SolveOptions{}); ws.route != routeStar {
		t.Fatalf("the star itself took route %d, want the closed form", ws.route)
	}
	for name, p := range cases {
		res := ws.Solve(p, SolveOptions{})
		if want := map[bool]int{false: routeIterate, true: routeNewton}[name == "2 of 3 flows"]; ws.route != want {
			t.Errorf("%s: route %d, want %d", name, ws.route, want)
		}
		for _, v := range res.Rates {
			if math.IsNaN(v) {
				t.Errorf("%s: NaN in rates %v", name, res.Rates)
				break
			}
		}
		for l, v := range res.Prices {
			if math.IsNaN(v) && !math.IsNaN(p.Capacity[l]) {
				t.Errorf("%s: NaN price on link %d of capacity %v: %v", name, l, p.Capacity[l], res.Prices)
			}
		}
	}
}
