package oracle

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/sim"
)

const gbps = 1e9

func almostEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return true
	}
	return math.Abs(a-b)/den < rel
}

func TestWeightedMaxMinSingleLink(t *testing.T) {
	// Shares on a single link are proportional to weights.
	x := WeightedMaxMin([]float64{12 * gbps},
		[][]int{{0}, {0}, {0}}, []float64{1, 2, 3})
	want := []float64{2 * gbps, 4 * gbps, 6 * gbps}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestMaxMinParkingLot(t *testing.T) {
	// Flow 0 crosses both links; flows 1 and 2 one link each.
	// Max-min: every flow gets C/2.
	c := []float64{10 * gbps, 10 * gbps}
	paths := [][]int{{0, 1}, {0}, {1}}
	x := MaxMin(c, paths)
	for i, want := range []float64{5 * gbps, 5 * gbps, 5 * gbps} {
		if !almostEq(x[i], want, 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestMaxMinUnevenBottlenecks(t *testing.T) {
	// Link 0: 10G shared by flows 0,1. Link 1: 30G shared by flows 0,2.
	// Flow 0 and 1 get 5G at link 0; flow 2 then gets 25G at link 1.
	c := []float64{10 * gbps, 30 * gbps}
	paths := [][]int{{0, 1}, {0}, {1}}
	x := MaxMin(c, paths)
	want := []float64{5 * gbps, 5 * gbps, 25 * gbps}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

// TestWeightedMaxMinProperty checks the defining property on random
// instances: for every flow there is a saturated link on its path
// where the flow's normalized rate x/w is at least that of every other
// flow crossing the link.
func TestWeightedMaxMinProperty(t *testing.T) {
	rng := sim.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		nl := 2 + rng.Intn(5)
		nf := 1 + rng.Intn(8)
		c := make([]float64, nl)
		for l := range c {
			c[l] = (1 + 9*rng.Float64()) * gbps
		}
		paths := make([][]int, nf)
		w := make([]float64, nf)
		for i := range paths {
			hops := 1 + rng.Intn(min(3, nl))
			perm := rng.Perm(nl)
			paths[i] = perm[:hops]
			w[i] = 0.5 + 4*rng.Float64()
		}
		x := WeightedMaxMin(c, paths, w)

		load := make([]float64, nl)
		for i, p := range paths {
			for _, l := range p {
				load[l] += x[i]
			}
		}
		// Feasibility.
		for l := range c {
			if load[l] > c[l]*(1+1e-9) {
				t.Fatalf("trial %d: link %d overloaded %v > %v", trial, l, load[l], c[l])
			}
		}
		// Bottleneck property.
		for i, p := range paths {
			ok := false
			for _, l := range p {
				if load[l] < c[l]*(1-1e-6) {
					continue // not saturated
				}
				isMax := true
				for j, q := range paths {
					if j == i {
						continue
					}
					for _, m := range q {
						if m == l && x[j]/w[j] > x[i]/w[i]*(1+1e-6) {
							isMax = false
						}
					}
				}
				if isMax {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("trial %d: flow %d has no bottleneck (x=%v)", trial, i, x)
			}
		}
	}
}

func TestSolveSingleLinkProportionalFair(t *testing.T) {
	p := core.NewProblem([]float64{10 * gbps})
	for i := 0; i < 4; i++ {
		p.AddFlow([]int{0}, core.ProportionalFair())
	}
	res := Solve(p, SolveOptions{})
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	for i, x := range res.Rates {
		if !almostEq(x, 2.5*gbps, 1e-6) {
			t.Errorf("x[%d] = %v, want 2.5G", i, x)
		}
	}
}

func TestSolveSingleLinkWeighted(t *testing.T) {
	// x_i = C * w_i / sum(w) for alpha-fair, any alpha.
	for _, alpha := range []float64{0.5, 1, 2} {
		p := core.NewProblem([]float64{12 * gbps})
		p.AddFlow([]int{0}, core.NewWeightedAlphaFair(alpha, 1))
		p.AddFlow([]int{0}, core.NewWeightedAlphaFair(alpha, 2))
		p.AddFlow([]int{0}, core.NewWeightedAlphaFair(alpha, 3))
		res := Solve(p, SolveOptions{})
		want := []float64{2 * gbps, 4 * gbps, 6 * gbps}
		for i := range want {
			if !almostEq(res.Rates[i], want[i], 1e-4) {
				t.Errorf("alpha=%v: x[%d] = %v, want %v", alpha, i, res.Rates[i], want[i])
			}
		}
	}
}

func TestSolveTandemProportionalFair(t *testing.T) {
	// Flow 0 over links {0,1}; flow 1 on {0}; flow 2 on {1}; C=C=10G.
	// Proportional fairness: x0 = C/3, x1 = x2 = 2C/3.
	p := core.NewProblem([]float64{10 * gbps, 10 * gbps})
	p.AddFlow([]int{0, 1}, core.ProportionalFair())
	p.AddFlow([]int{0}, core.ProportionalFair())
	p.AddFlow([]int{1}, core.ProportionalFair())
	res := Solve(p, SolveOptions{})
	want := []float64{10 * gbps / 3, 20 * gbps / 3, 20 * gbps / 3}
	for i := range want {
		if !almostEq(res.Rates[i], want[i], 1e-3) {
			t.Errorf("x[%d] = %v, want %v (converged=%v after %d)",
				i, res.Rates[i], want[i], res.Converged, res.Iterations)
		}
	}
}

func TestSolveMatchesDGDOnRandomNetworks(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 25; trial++ {
		nl := 2 + rng.Intn(4)
		nf := 2 + rng.Intn(6)
		caps := make([]float64, nl)
		for l := range caps {
			caps[l] = (2 + 8*rng.Float64()) * gbps
		}
		alpha := []float64{0.5, 1, 2}[rng.Intn(3)]
		p := core.NewProblem(caps)
		for i := 0; i < nf; i++ {
			hops := 1 + rng.Intn(min(2, nl))
			perm := rng.Perm(nl)
			w := 0.5 + 2*rng.Float64()
			p.AddFlow(perm[:hops], core.NewWeightedAlphaFair(alpha, w))
		}
		xwi := Solve(p, SolveOptions{})
		// A conservative step keeps DGD stable for alpha < 1, where
		// demand is very sensitive to price.
		dgd := SolveDGD(p, DGDOptions{Gamma: 0.05, MaxIter: 500000})
		if !xwi.Converged {
			t.Fatalf("trial %d: xWI did not converge", trial)
		}
		if !dgd.Converged {
			t.Fatalf("trial %d: DGD did not converge", trial)
		}
		for i := range xwi.Rates {
			if !almostEq(xwi.Rates[i], dgd.Rates[i], 2e-2) {
				t.Errorf("trial %d (alpha=%v): flow %d xWI %v vs DGD %v",
					trial, alpha, i, xwi.Rates[i], dgd.Rates[i])
			}
		}
		// The optimum is feasible and at least as good as DGD's point.
		if !p.IsFeasible(xwi.Rates, 1e-6) {
			t.Errorf("trial %d: xWI solution infeasible", trial)
		}
	}
}

func TestSolveConvergesFasterThanDGD(t *testing.T) {
	// The paper's core claim, in fluid form: xWI needs fewer iterations
	// than dual gradient descent run at a step size small enough to be
	// robust across utility families (DGD must be tuned conservatively
	// in practice, which is §3's point about the step-size dilemma).
	p := core.NewProblem([]float64{10 * gbps, 10 * gbps, 10 * gbps})
	p.AddFlow([]int{0, 1}, core.ProportionalFair())
	p.AddFlow([]int{1, 2}, core.ProportionalFair())
	p.AddFlow([]int{0}, core.ProportionalFair())
	p.AddFlow([]int{2}, core.ProportionalFair())
	p.AddFlow([]int{1}, core.ProportionalFair())
	xwi := Solve(p, SolveOptions{Tol: 1e-6})
	dgd := SolveDGD(p, DGDOptions{Gamma: 0.05, Tol: 1e-6})
	if !xwi.Converged || !dgd.Converged {
		t.Fatalf("convergence failure: xwi=%v dgd=%v", xwi.Converged, dgd.Converged)
	}
	if xwi.Iterations*2 > dgd.Iterations {
		t.Errorf("xWI %d iterations vs DGD %d: expected >2x speedup",
			xwi.Iterations, dgd.Iterations)
	}
}

func TestSolveResourcePooling(t *testing.T) {
	// Two parallel links; one aggregate with a subflow on each, against
	// one single-path flow on link 0. Proportional fairness over
	// aggregates: the aggregate should shift traffic to link 1 and the
	// pooled optimum gives aggregate ~1.5C... Actually the optimum of
	// log(y) + log(x1) with y = y0+y1, y0+x1 <= C, y1 <= C is
	// y0=0: maximize log(y1+y0)+log(C-y0): optimum y0=0, y1=C, x1=C.
	C := 10 * gbps
	p := core.NewProblem([]float64{C, C})
	g := p.AddAggregate(core.ProportionalFair())
	s0 := p.AddSubflow(g, []int{0})
	s1 := p.AddSubflow(g, []int{1})
	f := p.AddFlow([]int{0}, core.ProportionalFair())
	res := Solve(p, SolveOptions{MaxIter: 50000, Tol: 1e-7})
	agg := res.Rates[s0] + res.Rates[s1]
	if !almostEq(agg, C, 0.05) {
		t.Errorf("aggregate rate %v, want ~%v", agg, C)
	}
	if !almostEq(res.Rates[f], C, 0.05) {
		t.Errorf("single flow %v, want ~%v (pooling should vacate link 0)", res.Rates[f], C)
	}
}

func TestBwESingleLinkFigure2(t *testing.T) {
	b1 := fig2Flow1()
	b2 := fig2Flow2()
	// Link 10 Gb/s: flow 1 gets everything.
	x := BwESingleLink(10*gbps, []*core.BandwidthFunction{b1, b2})
	if !almostEq(x[0], 10*gbps, 1e-3) || x[1] > 0.01*gbps {
		t.Errorf("10G: got %v", x)
	}
	// Link 25 Gb/s: 15 / 10 split.
	x = BwESingleLink(25*gbps, []*core.BandwidthFunction{b1, b2})
	if !almostEq(x[0], 15*gbps, 1e-3) || !almostEq(x[1], 10*gbps, 1e-3) {
		t.Errorf("25G: got %v", x)
	}
}

func TestBwENetworkMatchesSingleLink(t *testing.T) {
	b1, b2 := fig2Flow1(), fig2Flow2()
	funcs := []*core.BandwidthFunction{b1, b2}
	for _, c := range []float64{5 * gbps, 10 * gbps, 25 * gbps, 35 * gbps} {
		single := BwESingleLink(c, funcs)
		multi := BwENetwork([]float64{c}, [][]int{{0}, {0}}, funcs)
		for i := range single {
			if !almostEq(single[i], multi[i], 1e-6) {
				t.Errorf("c=%v flow %d: single %v vs network %v", c, i, single[i], multi[i])
			}
		}
	}
}

func TestBwENetworkProgressiveFilling(t *testing.T) {
	// Two identical linear flows on a shared 10G link; flow 1 also
	// crosses a private 2G link that bottlenecks it early. Flow 0 then
	// takes the shared leftovers.
	lin := func() *core.BandwidthFunction {
		return core.MustBandwidthFunction([]core.BWPoint{
			{FairShare: 0, Bandwidth: 0}, {FairShare: 10, Bandwidth: 20 * gbps},
		})
	}
	funcs := []*core.BandwidthFunction{lin(), lin()}
	c := []float64{10 * gbps, 2 * gbps}
	paths := [][]int{{0}, {0, 1}}
	x := BwENetwork(c, paths, funcs)
	if !almostEq(x[1], 2*gbps, 1e-6) {
		t.Errorf("flow 1 = %v, want 2G", x[1])
	}
	if !almostEq(x[0], 8*gbps, 1e-6) {
		t.Errorf("flow 0 = %v, want 8G", x[0])
	}
}

func TestNUMApproximatesBwEForLargeAlpha(t *testing.T) {
	// §2's claim: with alpha ~ 5 the NUM solution using the integral
	// utility is close to the BwE water-filling allocation.
	b1, b2 := fig2Flow1(), fig2Flow2()
	for _, c := range []float64{10 * gbps, 25 * gbps} {
		want := BwESingleLink(c, []*core.BandwidthFunction{b1, b2})
		p := core.NewProblem([]float64{c})
		p.AddFlow([]int{0}, core.NewBWUtility(b1, 5))
		p.AddFlow([]int{0}, core.NewBWUtility(b2, 5))
		res := Solve(p, SolveOptions{MaxIter: 50000})
		for i := range want {
			if math.Abs(res.Rates[i]-want[i]) > 0.08*c {
				t.Errorf("c=%v flow %d: NUM %v vs BwE %v", c, i, res.Rates[i], want[i])
			}
		}
	}
}

func TestBottleneckOf(t *testing.T) {
	c := []float64{10 * gbps, 30 * gbps}
	paths := [][]int{{0, 1}, {0}, {1}}
	x := MaxMin(c, paths)
	b := BottleneckOf(c, paths, x)
	if b[0] != 0 || b[1] != 0 || b[2] != 1 {
		t.Errorf("bottlenecks = %v", b)
	}
}

func fig2Flow1() *core.BandwidthFunction {
	return core.MustBandwidthFunction([]core.BWPoint{
		{FairShare: 0, Bandwidth: 0},
		{FairShare: 2, Bandwidth: 10 * gbps},
		{FairShare: 2.5, Bandwidth: 15 * gbps},
		{FairShare: 5, Bandwidth: 40 * gbps},
	})
}

func fig2Flow2() *core.BandwidthFunction {
	return core.MustBandwidthFunction([]core.BWPoint{
		{FairShare: 0, Bandwidth: 0},
		{FairShare: 2, Bandwidth: 0},
		{FairShare: 2.5, Bandwidth: 10 * gbps},
		{FairShare: 5, Bandwidth: 10 * gbps},
	})
}
