package fluid

import (
	"math"
	"testing"

	"numfabric/internal/core"
)

// opaqueUtility is an AlphaFair the allocators cannot see through:
// gatherAlpha's type assertion fails on it, so a flow set carrying it
// solves on the interface path with the same arithmetic.
type opaqueUtility struct{ core.AlphaFair }

// TestAlphaPlanMatchesInterfacePath: the per-solve α-fair plan (weight
// column + kernel index over the distinct α) yields, bit for bit, the
// rates and prices of the interface path — on one α, on several α with
// per-flow weights, past the plan's bound on distinct α, and with one
// utility in the set that is not an AlphaFair at all.
func TestAlphaPlanMatchesInterfacePath(t *testing.T) {
	ft := NewFatTree(8, 10e9)
	const n = 24
	cases := []struct {
		name string
		fast bool
		u    func(i int) core.Utility
	}{
		{"fctmin", true, func(i int) core.Utility { return core.FCTMin(int64(1000<<(i%12)), 0.125) }},
		{"three alphas, weighted", true, func(i int) core.Utility {
			return core.NewWeightedAlphaFair([]float64{0.125, 1, 2}[i%3], float64(1+i%5))
		}},
		{"past the bound", false, func(i int) core.Utility {
			return core.NewWeightedAlphaFair(0.25*float64(1+i%(core.MaxAlphaKernels+2)), float64(1+i%3))
		}},
		{"one opaque", false, func(i int) core.Utility {
			if i == n/2 {
				return opaqueUtility{core.NewAlphaFair(0.5)}
			}
			return core.FCTMin(int64(1000<<(i%12)), 0.125)
		}},
	}
	allocators := []struct {
		name string
		new  func() Allocator
	}{
		{"xwi", func() Allocator { return &XWI{Eta: 5, Beta: 0.5, IterPerEpoch: 48, Tol: 1e-3} }},
		{"dgd", func() Allocator { return &DGD{IterPerEpoch: 200, Tol: 1e-3} }},
	}
	for _, c := range cases {
		plain := kernelComponent(ft, n, nil)
		wrapped := kernelComponent(ft, n, nil)
		for i := range plain {
			plain[i].U = c.u(i)
			wrapped[i].U = c.u(i)
			if af, ok := wrapped[i].U.(core.AlphaFair); ok {
				wrapped[i].U = opaqueUtility{af}
			}
		}
		var s scratch
		if got := s.gatherAlpha(plain); got != c.fast {
			t.Errorf("%s: gatherAlpha = %v, want %v", c.name, got, c.fast)
		}
		if s.gatherAlpha(wrapped) {
			t.Fatalf("%s: the wrapped set took the fast path", c.name)
		}
		for _, al := range allocators {
			a, b := al.new(), al.new()
			ra, rb := make([]float64, n), make([]float64, n)
			// A cold solve, a departure and a warm re-solve.
			for _, m := range []int{n, n - 1, n} {
				a.AllocateSubset(ft.Net, plain[:m], ra)
				b.AllocateSubset(ft.Net, wrapped[:m], rb)
				for i := 0; i < m; i++ {
					if math.Float64bits(ra[i]) != math.Float64bits(rb[i]) {
						t.Fatalf("%s/%s: flow %d of %d: plan %v, interface path %v", c.name, al.name, i, m, ra[i], rb[i])
					}
				}
			}
		}
	}
}

// TestXWISubsetAllocatesNothingWarm: the plan's columns are reused
// like the rest of the scratch — a warm AllocateSubset on FCTMin flows
// plus a multipath group allocates nothing, its group numbering and totals
// included (make alloc-gate).
func TestXWISubsetAllocatesNothingWarm(t *testing.T) {
	ft := NewFatTree(8, 10e9)
	flows := fctMinComponent(ft, 64)
	var members FlowTable
	g := &Group{U: core.ProportionalFair()}
	for _, pick := range []int{0, 5} {
		g.AddMember(members.Acquire(ft.Route(3, 40, pick), nil, 0, 0))
	}
	flows = append(g.Members, flows...)
	a := &XWI{Eta: 5, Beta: 0.5, IterPerEpoch: 48, Tol: 1e-3}
	rates := make([]float64, len(flows))
	a.AllocateSubset(ft.Net, flows, rates)
	i := 0
	if avg := testing.AllocsPerRun(50, func() {
		a.AllocateSubset(ft.Net, flows[:len(flows)-i%2], rates)
		i++
	}); avg != 0 {
		t.Fatalf("warm XWI.AllocateSubset on FCTMin flows and a group: %v allocs/op, want 0", avg)
	}
}

// TestOracleAllocatesNothingWarm: a warm Oracle.Allocate — refsim's
// call, the Figure 5 ideals' — rebuilds its core.Problem in place and
// solves on a kept workspace and α plan, so it allocates nothing, on
// FCTMin flows (make alloc-gate).
func TestOracleAllocatesNothingWarm(t *testing.T) {
	ft := NewFatTree(8, 10e9)
	flows := fctMinComponent(ft, 24)
	o := &Oracle{MaxIter: 1500}
	rates := make([]float64, len(flows))
	o.Allocate(ft.Net, flows, rates)
	i := 0
	if avg := testing.AllocsPerRun(50, func() {
		o.Allocate(ft.Net, flows[:len(flows)-i%2], rates)
		i++
	}); avg != 0 {
		t.Fatalf("warm Oracle.Allocate: %v allocs/op, want 0", avg)
	}
}
