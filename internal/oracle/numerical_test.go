package oracle

import (
	"math"
	"testing"

	"numfabric/internal/cert"
	"numfabric/internal/core"
	"numfabric/internal/sim"
)

// TestFluidXWIRandomTopologies mirrors the paper's §4.2 claim: "we
// have conducted extensive numerical simulations of the algorithm, and
// found that xWI converges to the NUM optimal solution across a wide
// range of randomly generated topologies and flow patterns." Each
// trial builds a random topology/flow pattern, solves it with fluid
// xWI, and checks the KKT conditions directly (feasibility, marginal
// = path price for every flow, complementary slackness per link).
func TestFluidXWIRandomTopologies(t *testing.T) {
	rng := sim.NewRNG(2016)
	trials := 120
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		nl := 3 + rng.Intn(12)
		nf := 2 + rng.Intn(20)
		caps := make([]float64, nl)
		for l := range caps {
			caps[l] = (1 + 39*rng.Float64()) * 1e9
		}
		alpha := []float64{0.5, 1, 1.5, 2, 3}[rng.Intn(5)]
		p := core.NewProblem(caps)
		for i := 0; i < nf; i++ {
			hops := 1 + rng.Intn(min(4, nl))
			perm := rng.Perm(nl)
			w := 0.25 + 4*rng.Float64()
			p.AddFlow(perm[:hops], core.NewWeightedAlphaFair(alpha, w))
		}
		res := Solve(p, SolveOptions{})
		if !res.Converged {
			t.Fatalf("trial %d (nl=%d nf=%d alpha=%v): did not converge", trial, nl, nf, alpha)
		}
		checkKKT(t, trial, p, res, 0.02)
	}
}

// checkKKT verifies the optimality system (Eqs. 5-6) through
// internal/cert: feasible to 1e-6, and the worst relative KKT violation
// — U′ of each group's total rate against each member's path price,
// complementary slackness per link — within tol.
func checkKKT(t *testing.T, trial int, p *core.Problem, res Result, tol float64) {
	t.Helper()
	if v := cert.Feasibility(p, res.Rates); v > 1e-6 {
		t.Fatalf("trial %d: infeasible solution (%.3g over)", trial, v)
	}
	if v := cert.KKT(p, res.Rates, res.Prices); v > tol {
		t.Errorf("trial %d: KKT violated by %.3g relative, want ≤ %g", trial, v, tol)
	}
}

// TestFluidXWIClosedFormAlphaFair checks the solver against the
// closed-form single-link α-fair allocation x_i = C·w_i/Σw for a
// spread of α and weights.
func TestFluidXWIClosedFormAlphaFair(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		alpha := 0.25 + 3*rng.Float64()
		c := (1 + 39*rng.Float64()) * 1e9
		p := core.NewProblem([]float64{c})
		weights := make([]float64, n)
		sum := 0.0
		for i := range weights {
			weights[i] = 0.2 + 5*rng.Float64()
			sum += weights[i]
			p.AddFlow([]int{0}, core.NewWeightedAlphaFair(alpha, weights[i]))
		}
		res := Solve(p, SolveOptions{})
		for i := range weights {
			want := c * weights[i] / sum
			if math.Abs(res.Rates[i]-want)/want > 5e-3 {
				t.Errorf("trial %d flow %d: %.4g want %.4g (alpha=%.2f)",
					trial, i, res.Rates[i], want, alpha)
			}
		}
	}
}
