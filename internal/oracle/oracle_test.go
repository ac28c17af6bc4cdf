package oracle

import (
	"math"
	"testing"

	"numfabric/internal/cert"
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
	x := WeightedMaxMin(c, paths, []float64{1, 1, 1})
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
	x := WeightedMaxMin(c, paths, []float64{1, 1, 1})
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

// TestBwESingleLinkFigure2: on Figure 2's link at 10 and 25 Gb/s the
// water-fill gives the figure's splits, and at every capacity — these,
// 5 (inside flow 1's priority range) and 35 (flow 2 capped) — the link
// is full, or every function at its cap, and the flows not at their caps
// share one fair share.
func TestBwESingleLinkFigure2(t *testing.T) {
	funcs := []*core.BandwidthFunction{fig2Flow1(), fig2Flow2()}
	// Link 10 Gb/s: flow 1 gets everything.
	x := BwESingleLink(10*gbps, funcs)
	if !almostEq(x[0], 10*gbps, 1e-3) || x[1] > 0.01*gbps {
		t.Errorf("10G: got %v", x)
	}
	// Link 25 Gb/s: 15 / 10 split.
	x = BwESingleLink(25*gbps, funcs)
	if !almostEq(x[0], 15*gbps, 1e-3) || !almostEq(x[1], 10*gbps, 1e-3) {
		t.Errorf("25G: got %v", x)
	}
	for _, c := range []float64{5 * gbps, 10 * gbps, 25 * gbps, 35 * gbps} {
		x := BwESingleLink(c, funcs)
		sum, capped, share := 0.0, true, math.NaN()
		for i, b := range funcs {
			sum += x[i]
			if x[i] >= b.MaxBandwidth() {
				continue
			}
			capped = false
			f := b.Inverse(x[i])
			if math.IsNaN(share) {
				share = f
			} else if !almostEq(f, share, 1e-6) {
				t.Errorf("c=%v: uncapped flow %d at fair share %v, another at %v", c, i, f, share)
			}
		}
		if !capped && !almostEq(sum, c, 1e-9) {
			t.Errorf("c=%v: allocated %v, the link is not full", c, sum)
		}
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

// TestBottleneckOf: every flow of the max-min allocation on uneven
// bottlenecks has one — cert.MaxMin finds, for each, a saturated link on
// its path where its rate is the largest — with each weight in turn
// raised.
func TestBottleneckOf(t *testing.T) {
	c := []float64{10 * gbps, 30 * gbps}
	paths := [][]int{{0, 1}, {0}, {1}}
	p := core.NewProblem(c)
	for _, path := range paths {
		p.AddFlow(path, core.ProportionalFair())
	}
	for _, w := range [][]float64{{1, 1, 1}, {3, 1, 1}, {1, 3, 1}, {1, 1, 3}} {
		x := WeightedMaxMin(c, paths, w)
		if v := cert.MaxMin(p, w, x); v > 1e-12 {
			t.Errorf("weights %v: rates %v violate max-min by %.3g", w, x, v)
		}
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
