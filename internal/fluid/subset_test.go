package fluid

import (
	"math"
	"testing"

	"numfabric/internal/core"
)

// subsetScenario builds two link-disjoint components on one network:
// component A = flows[0:3] on links {0,1}, component B = flows[3:5]
// on links {2,3}. Any correct subset allocator must give each
// component the same rates whether it is solved alone or jointly.
func subsetScenario() (*Network, []*Flow, []*Flow) {
	net := NewNetwork([]float64{10e9, 10e9, 25e9, 40e9})
	u := core.ProportionalFair()
	var tbl FlowTable
	a := []*Flow{
		tbl.Acquire([]int{0}, u, 1<<20, 0),
		tbl.Acquire([]int{0, 1}, u, 1<<20, 0),
		tbl.Acquire([]int{1}, u, 1<<20, 0),
	}
	b := []*Flow{
		tbl.Acquire([]int{2}, u, 1<<20, 0),
		tbl.Acquire([]int{2, 3}, u, 1<<20, 0),
	}
	return net, a, b
}

// TestWaterFillSubsetMatchesFull: solving each component alone gives
// bitwise the rates of the joint solve — progressive filling is
// separable across disjoint link sets, the invariant the leap
// engine's component-local reallocation rests on.
func TestWaterFillSubsetMatchesFull(t *testing.T) {
	net, a, b := subsetScenario()
	all := append(append([]*Flow{}, a...), b...)
	full := make([]float64, len(all))
	NewWaterFill().Allocate(net, all, full)
	if v := maxMinViolation(net, all, full); v > 1e-12 {
		t.Errorf("the joint solve misses the max-min certificate by %.3g", v)
	}

	w := NewWaterFill()
	ra := make([]float64, len(a))
	rb := make([]float64, len(b))
	w.AllocateSubset(net, a, ra)
	w.AllocateSubset(net, b, rb)
	for i := range a {
		if ra[i] != full[i] {
			t.Errorf("component A flow %d: subset %v != full %v", i, ra[i], full[i])
		}
	}
	for i := range b {
		if rb[i] != full[len(a)+i] {
			t.Errorf("component B flow %d: subset %v != full %v", i, rb[i], full[len(a)+i])
		}
	}
}

// TestOracleSubsetMatchesFull: the NUM optimum decomposes across
// connected components, so the Oracle's subset solve must land on the
// same rates as the joint solve (to solver tolerance).
func TestOracleSubsetMatchesFull(t *testing.T) {
	net, a, b := subsetScenario()
	all := append(append([]*Flow{}, a...), b...)
	full := make([]float64, len(all))
	NewOracle().Allocate(net, all, full)

	o := NewOracle()
	ra := make([]float64, len(a))
	rb := make([]float64, len(b))
	o.AllocateSubset(net, a, ra)
	o.AllocateSubset(net, b, rb)
	for i := range a {
		if math.Abs(ra[i]-full[i])/full[i] > 1e-3 {
			t.Errorf("component A flow %d: subset %v vs full %v", i, ra[i], full[i])
		}
	}
	for i := range b {
		if math.Abs(rb[i]-full[len(a)+i])/full[len(a)+i] > 1e-3 {
			t.Errorf("component B flow %d: subset %v vs full %v", i, rb[i], full[len(a)+i])
		}
	}
}

// TestXWISubsetPreservesOtherPrices: converge xWI on the joint
// problem, then re-solve component A alone many times; component B's
// warm prices must survive untouched, so its next short subset solve
// stays at the fixed point.
func TestXWISubsetPreservesOtherPrices(t *testing.T) {
	net, a, b := subsetScenario()
	all := append(append([]*Flow{}, a...), b...)
	// Run the joint dynamics to the true fixed point (no early exit —
	// the Tol exit can quit while idle-link price residue is still
	// decaying, leaving rates off the optimum).
	x := &XWI{Eta: 5, Beta: 0.5, IterPerEpoch: 4000}
	full := make([]float64, len(all))
	x.Allocate(net, all, full)

	// Component A re-solves many times; B's links are never touched.
	ra := make([]float64, len(a))
	for i := 0; i < 5; i++ {
		x.AllocateSubset(net, a, ra)
	}
	// B's first event after A's churn: warm-started prices mean a
	// short subset solve holds the fixed point.
	rb := make([]float64, len(b))
	x.IterPerEpoch = 8
	x.AllocateSubset(net, b, rb)
	for i := range b {
		want := full[len(a)+i]
		if math.Abs(rb[i]-want)/want > 0.02 {
			t.Errorf("component B flow %d drifted: %v, want ≈ %v (warm prices disturbed?)",
				i, rb[i], want)
		}
	}
}

// TestDGDSubsetMatchesFull: DGD's subset dynamics converge to the
// same component rates as the joint dynamics.
func TestDGDSubsetMatchesFull(t *testing.T) {
	net, a, b := subsetScenario()
	all := append(append([]*Flow{}, a...), b...)
	full := make([]float64, len(all))
	(&DGD{Gamma: 0.2, IterPerEpoch: 4000, Tol: 1e-7}).Allocate(net, all, full)

	d := &DGD{Gamma: 0.2, IterPerEpoch: 4000, Tol: 1e-7}
	ra := make([]float64, len(a))
	rb := make([]float64, len(b))
	d.AllocateSubset(net, a, ra)
	d.AllocateSubset(net, b, rb)
	for i := range a {
		if math.Abs(ra[i]-full[i])/full[i] > 0.02 {
			t.Errorf("component A flow %d: subset %v vs full %v", i, ra[i], full[i])
		}
	}
	for i := range b {
		if math.Abs(rb[i]-full[len(a)+i])/full[len(a)+i] > 0.02 {
			t.Errorf("component B flow %d: subset %v vs full %v", i, rb[i], full[len(a)+i])
		}
	}
}

// Every built-in allocator offers the subset path: it is part of
// Allocator, so the leap engine has no whole-set fallback to fall into.
var _ = []SubsetAllocator{NewWaterFill(), NewXWI(), NewOracle(), NewDGD()}
