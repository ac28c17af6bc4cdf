package oracle_test

import (
	"math"
	"testing"

	"numfabric/internal/cert"
	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
)

// The §3 dual-gradient baseline is fluid.DGD, the allocator the engines
// play. These tests hold its steady state to Solve's optimum and count
// its gradient steps against fluid.XWI's price iterations: the paper's
// protocol against the baseline, played on the same networks.

// maxIter bounds one solve of allocate: a solve that takes them all did
// not converge.
const maxIter = 500_000

// allocate runs one cold Allocate of p's flows (single-flow groups) with
// a and returns the rates and the iterations it took.
func allocate(p *core.Problem, a interface {
	fluid.Allocator
	fluid.IterCounter
}) ([]float64, int64) {
	flows := make([]*fluid.Flow, len(p.Flows))
	for i, f := range p.Flows {
		flows[i] = fluid.NewFlow(i, f.Links, p.Groups[f.Group].U, 0, 0)
	}
	rates := make([]float64, len(flows))
	a.Allocate(fluid.NewNetwork(p.Capacity), flows, rates)
	return rates, a.SolveIters()
}

// dgd is the conservatively stepped DGD (γ = 0.05, robust across the
// utility families: §3's step-size dilemma) run until no rate moves by
// tol of the largest capacity.
func dgd(tol float64) *fluid.DGD {
	return &fluid.DGD{Gamma: 0.05, IterPerEpoch: maxIter, Tol: tol}
}

// xwi is xWI at Table 2's defaults run to the same stop as dgd.
func xwi(tol float64) *fluid.XWI {
	a := fluid.NewXWI()
	a.IterPerEpoch, a.Tol = maxIter, tol
	return a
}

// TestSolveMatchesDGDOnRandomNetworks: on 25 random networks, DGD's
// steady state (to 1e-10 of the largest capacity) is within 1e-5 of
// every rate Solve returns, and Solve's rates are certified at its
// prices: feasible to 1e-15, KKT residual and duality gap within 1e-12.
func TestSolveMatchesDGDOnRandomNetworks(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 25; trial++ {
		nl := 2 + rng.Intn(4)
		nf := 2 + rng.Intn(6)
		caps := make([]float64, nl)
		for l := range caps {
			caps[l] = (2 + 8*rng.Float64()) * 1e9
		}
		alpha := []float64{0.5, 1, 2}[rng.Intn(3)]
		p := core.NewProblem(caps)
		for i := 0; i < nf; i++ {
			hops := 1 + rng.Intn(min(2, nl))
			perm := rng.Perm(nl)
			w := 0.5 + 2*rng.Float64()
			p.AddFlow(perm[:hops], core.NewWeightedAlphaFair(alpha, w))
		}
		res := oracle.Solve(p, oracle.SolveOptions{})
		if !res.Converged {
			t.Fatalf("trial %d: Solve did not converge", trial)
		}
		feas, kkt, gap := cert.Feasibility(p, res.Rates), cert.KKT(p, res.Rates, res.Prices), cert.Gap(p, res.Rates, res.Prices)
		if feas > 1e-15 || kkt > 1e-12 || gap > 1e-12 {
			t.Errorf("trial %d (alpha=%v): Solve's feasibility %.3g (want ≤ 1e-15), KKT %.3g, gap %.3g (want ≤ 1e-12)", trial, alpha, feas, kkt, gap)
		}
		x, iters := allocate(p, dgd(1e-10))
		if iters >= maxIter {
			t.Fatalf("trial %d: DGD did not converge in %d steps", trial, iters)
		}
		for i, want := range res.Rates {
			if d := math.Abs(x[i]-want) / want; d > 1e-5 {
				t.Errorf("trial %d (alpha=%v): flow %d DGD %v vs Solve %v", trial, alpha, i, x[i], want)
			}
		}
	}
}

// TestSolveConvergesFasterThanDGD is the paper's core claim in fluid
// form: on a three-link chain of proportional-fair flows, xWI reaches
// its fixed point in under half the iterations DGD's gradient steps take
// to the same stop.
func TestSolveConvergesFasterThanDGD(t *testing.T) {
	p := core.NewProblem([]float64{10e9, 10e9, 10e9})
	p.AddFlow([]int{0, 1}, core.ProportionalFair())
	p.AddFlow([]int{1, 2}, core.ProportionalFair())
	p.AddFlow([]int{0}, core.ProportionalFair())
	p.AddFlow([]int{2}, core.ProportionalFair())
	p.AddFlow([]int{1}, core.ProportionalFair())
	_, xi := allocate(p, xwi(1e-6))
	_, di := allocate(p, dgd(1e-6))
	if xi >= maxIter || di >= maxIter {
		t.Fatalf("convergence failure: xWI %d, DGD %d iterations", xi, di)
	}
	if xi*2 > di {
		t.Errorf("xWI %d iterations vs DGD %d: expected >2x speedup", xi, di)
	}
}

// TestFluidXWIIterationCounts quantifies the convergence-speed claim
// across random instances: xWI takes fewer iterations than
// conservatively stepped DGD in at least three quarters of them.
func TestFluidXWIIterationCounts(t *testing.T) {
	rng := sim.NewRNG(99)
	faster := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		nl := 3 + rng.Intn(5)
		nf := 3 + rng.Intn(8)
		caps := make([]float64, nl)
		for l := range caps {
			caps[l] = (2 + 8*rng.Float64()) * 1e9
		}
		p := core.NewProblem(caps)
		for i := 0; i < nf; i++ {
			hops := 1 + rng.Intn(min(2, nl))
			perm := rng.Perm(nl)
			p.AddFlow(perm[:hops], core.ProportionalFair())
		}
		_, xi := allocate(p, xwi(1e-6))
		_, di := allocate(p, dgd(1e-6))
		if xi < maxIter && di < maxIter && xi < di {
			faster++
		}
	}
	if faster < trials*3/4 {
		t.Errorf("xWI beat conservative DGD in only %d/%d trials", faster, trials)
	}
}
