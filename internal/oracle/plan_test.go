package oracle

import (
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/sim"
)

// opaqueUtility is an AlphaFair Solve cannot see through: the α plan's
// type assertion fails on it, so a problem carrying it solves on the
// interface path with the same arithmetic.
type opaqueUtility struct{ core.AlphaFair }

// planProblems builds one random problem twice: plain carries the
// utilities u returns, wrapped the same utilities behind opaqueUtility.
// With pooled set, every third group is an aggregate of two or three
// subflows; with dead set, link 0 has capacity zero.
func planProblems(rng *sim.RNG, ng, nl int, pooled, dead bool, u func(g int) core.Utility) (plain, wrapped *core.Problem) {
	c := make([]float64, nl)
	for l := range c {
		c[l] = (1 + 39*rng.Float64()) * gbps
	}
	if dead {
		c[0] = 0
	}
	plain, wrapped = core.NewProblem(c), core.NewProblem(c)
	for g := 0; g < ng; g++ {
		members := 1
		if pooled && g%3 == 0 {
			members = 2 + rng.Intn(2)
		}
		paths := randomPaths(rng, members, nl)
		ug := u(g)
		uw := ug
		if af, ok := ug.(core.AlphaFair); ok {
			uw = opaqueUtility{af}
		}
		if members == 1 {
			plain.AddFlow(paths[0], ug)
			wrapped.AddFlow(paths[0], uw)
			continue
		}
		gp, gw := plain.AddAggregate(ug), wrapped.AddAggregate(uw)
		for _, pth := range paths {
			plain.AddSubflow(gp, pth)
			wrapped.AddSubflow(gw, pth)
		}
	}
	return plain, wrapped
}

// withoutLastGroup is p less its last group — a departure — over the
// same links.
func withoutLastGroup(p *core.Problem) *core.Problem {
	q := core.NewProblem(p.Capacity)
	for _, grp := range p.Groups[:len(p.Groups)-1] {
		if len(grp.Flows) == 1 {
			q.AddFlow(p.Flows[grp.Flows[0]].Links, grp.U)
			continue
		}
		g := q.AddAggregate(grp.U)
		for _, f := range grp.Flows {
			q.AddSubflow(g, p.Flows[f].Links)
		}
	}
	return q
}

// TestSolvePlanMatchesInterface: Solve's devirtualised α-fair plan (a
// per-group weight column and kernel index) returns, bit for bit, the
// rates, prices and iteration count of the interface path — at each
// α the kernels special-case (1: w/x; 0.125: integer part 0 and an
// integer inverse; 0.5; 2), on four α at once with per-group weights,
// past the plan's bound on distinct α (six here; the bound is four),
// with one utility the plan cannot see through, on multipath groups
// and on a zero-capacity link — each solved cold, then warm after a
// departure, on workspaces carried across the cases. Both sides go
// through the iteration: Solve sends the single-α, single-path cases to
// the exact solvers, which the interface path never reaches.
func TestSolvePlanMatchesInterface(t *testing.T) {
	alphas := []float64{1, 0.125, 0.5, 2, 0.75, 3}
	cases := []struct {
		name         string
		pooled, dead bool
		u            func(g int) core.Utility
	}{
		{"alpha=1", false, false, func(int) core.Utility { return core.ProportionalFair() }},
		{"fctmin", false, false, func(g int) core.Utility { return core.FCTMin(int64(1000<<(g%12)), 0.125) }},
		{"alpha=0.5 weighted", false, false, func(g int) core.Utility { return core.NewWeightedAlphaFair(0.5, float64(1+g%4)) }},
		{"alpha=2", false, false, func(int) core.Utility { return core.NewAlphaFair(2) }},
		{"four alphas", false, false, func(g int) core.Utility {
			return core.NewWeightedAlphaFair(alphas[g%4], float64(1+g%3))
		}},
		{"six alphas", false, false, func(g int) core.Utility { return core.NewAlphaFair(alphas[g%6]) }},
		{"one opaque", false, false, func(g int) core.Utility {
			if g == 5 {
				return opaqueUtility{core.NewAlphaFair(0.5)}
			}
			return core.NewAlphaFair(alphas[g%2])
		}},
		{"pooled", true, false, func(g int) core.Utility { return core.NewAlphaFair(alphas[g%4]) }},
		{"dead link", false, true, func(g int) core.Utility { return core.NewAlphaFair(alphas[g%3]) }},
		{"pooled, dead link", true, true, func(g int) core.Utility { return core.FCTMin(int64(4000<<(g%9)), 0.125) }},
	}
	rng := sim.NewRNG(29)
	var wsPlain, wsWrapped SolveWorkspace
	for _, c := range cases {
		plain, wrapped := planProblems(rng, 14, 18, c.pooled, c.dead, c.u)
		opts := SolveOptions{MaxIter: 1500, Tol: 1e-7}
		var init []float64
		for step, pair := range [][2]*core.Problem{{plain, wrapped}, {withoutLastGroup(plain), withoutLastGroup(wrapped)}} {
			opts.InitPrices = init // cold first, then warm from the plan's duals
			wsPlain.prepare(pair[0])
			wsWrapped.prepare(pair[1])
			got := wsPlain.iterate(pair[0], opts.withDefaults())
			want := wsWrapped.iterate(pair[1], opts.withDefaults())
			if !bitsEqual(got.Rates, want.Rates) || !bitsEqual(got.Prices, want.Prices) ||
				got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Fatalf("%s, step %d: plan path differs from the interface path\n got %+v\nwant %+v", c.name, step, got, want)
			}
			if got.Iterations < 2 {
				t.Fatalf("%s, step %d: %d iterations; the comparison needs a real solve", c.name, step, got.Iterations)
			}
			init = append(init[:0], got.Prices...)
		}
	}
}
