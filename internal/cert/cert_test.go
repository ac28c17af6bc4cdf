package cert

import (
	"math"
	"testing"

	"numfabric/internal/core"
)

func TestLinkLoads(t *testing.T) {
	p := core.NewProblem([]float64{10e9, 10e9})
	p.AddFlow([]int{0, 1}, core.ProportionalFair())
	p.AddFlow([]int{1}, core.ProportionalFair())
	load := LinkLoads(p, []float64{3e9, 4e9})
	if load[0] != 3e9 || load[1] != 7e9 {
		t.Errorf("loads = %v", load)
	}
}

// TestFeasibility: the worst relative excess, not a verdict — each
// constraint kind in isolation, then a NaN and a length mismatch.
func TestFeasibility(t *testing.T) {
	p := core.NewProblem([]float64{10e9, 20e9, 0})
	p.AddFlow([]int{0, 1}, core.ProportionalFair())
	p.AddFlow([]int{1}, core.ProportionalFair())
	p.AddFlow([]int{2, 1}, core.ProportionalFair())
	for _, c := range []struct {
		name string
		x    []float64
		want float64
	}{
		{"saturated", []float64{10e9, 10e9, 0}, 0},
		{"slack", []float64{1e9, 1e9, 0}, 0},
		{"one link 1% over", []float64{10.1e9, 9.9e9, 0}, 0.01},
		{"negative rate", []float64{-2e9, 1e9, 0}, 0.1},
		{"rate across a dead link", []float64{1e9, 1e9, 4e9}, 0.2},
		{"NaN rate", []float64{math.NaN(), 1e9, 0}, math.Inf(1)},
		{"too few rates", []float64{1e9, 1e9}, math.Inf(1)},
	} {
		if got := Feasibility(p, c.x); math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Errorf("%s: %g, want %g", c.name, got, c.want)
		}
	}
}

// kktCase is a problem with its exact optimum.
type kktCase struct {
	name     string
	p        *core.Problem
	x, price []float64
}

// exactOptima are four problems whose NUM optimum is known in closed
// form: two proportional-fair flows on one link (c/2 each at price 2/c);
// a flow across two links beside a flow on the wider one (the narrow
// link binds the first, the second takes the rest); and a two-path
// pooled group, beside a plain flow and alone, where the group's marginal
// is of its total rate — the case a per-member marginal gets wrong.
func exactOptima() []kktCase {
	pf := core.ProportionalFair()
	one := core.NewProblem([]float64{10e9})
	one.AddFlow([]int{0}, pf)
	one.AddFlow([]int{0}, pf)

	chain := core.NewProblem([]float64{4e9, 10e9})
	chain.AddFlow([]int{0, 1}, pf)
	chain.AddFlow([]int{1}, pf)
	// Flow 1 alone sets link 1's price: 1/6e9. Flow 0 pays both:
	// 1/4e9 = p0 + 1/6e9.
	p1 := 1 / 6e9

	// The group pools links 0 and 1 (10G each) and shares link 1 with a
	// plain flow: y = 10e9 + a, plain = 10e9 − a, and equal prices on
	// link 1 give 1/y = 1/(10e9 − a), so a = 0 and both links are priced
	// at 1/10e9.
	pool := core.NewProblem([]float64{10e9, 10e9})
	g := pool.AddAggregate(pf)
	pool.AddSubflow(g, []int{0})
	pool.AddSubflow(g, []int{1})
	pool.AddFlow([]int{1}, pf)
	pool2 := core.NewProblem([]float64{10e9, 10e9})
	g = pool2.AddAggregate(pf)
	pool2.AddSubflow(g, []int{0})
	pool2.AddSubflow(g, []int{1})

	return []kktCase{
		{"one link", one, []float64{5e9, 5e9}, []float64{2 / 10e9}},
		{"chain", chain, []float64{4e9, 6e9}, []float64{1/4e9 - p1, p1}},
		{"pooled group and a flow", pool, []float64{10e9, 0, 10e9}, []float64{1 / 10e9, 1 / 10e9}},
		{"pooled group alone", pool2, []float64{10e9, 10e9}, []float64{1 / 20e9, 1 / 20e9}},
	}
}

// TestKKTExactOptima: every closed-form optimum certifies to rounding,
// and a perturbation of each kind is reported at its size.
func TestKKTExactOptima(t *testing.T) {
	for _, c := range exactOptima() {
		if v := Feasibility(c.p, c.x); v > 1e-15 {
			t.Errorf("%s: feasibility %g", c.name, v)
		}
		if v := KKT(c.p, c.x, c.price); v > 1e-12 {
			t.Errorf("%s: KKT %g, want ≈ 0", c.name, v)
		}
	}
	one := exactOptima()[0]
	for _, m := range []struct {
		name     string
		x, price []float64
		want     float64
	}{
		{"price 10% high", one.x, []float64{2.2 / 10e9}, 0.2 / 2.2},
		{"rates off the optimum", []float64{4e9, 6e9}, one.price, 0.2},
		{"priced link at half load", []float64{2.5e9, 2.5e9}, one.price, 0.5},
		{"negative price", one.x, []float64{-2 / 10e9}, 2},
		{"NaN price", one.x, []float64{math.NaN()}, math.Inf(1)},
	} {
		got := KKT(one.p, m.x, m.price)
		if !(math.Abs(got-m.want) <= 1e-12) && got != m.want {
			t.Errorf("%s: KKT %g, want %g", m.name, got, m.want)
		}
	}
}

// TestGapExactOptima: every closed-form optimum has a zero duality gap to
// rounding, and one price 1 % high opens it by the second-order amount
// (≈ 5e-5 on one link) — far past any tolerance a solver states.
func TestGapExactOptima(t *testing.T) {
	for _, c := range exactOptima() {
		if v := Gap(c.p, c.x, c.price); v > 1e-14 {
			t.Errorf("%s: gap %g, want ≈ 0", c.name, v)
		}
		for l := range c.price {
			if c.price[l] == 0 {
				continue
			}
			high := append([]float64(nil), c.price...)
			high[l] *= 1.01
			if v := Gap(c.p, c.x, high); v < 1e-6 {
				t.Errorf("%s: price %d × 1.01: gap %g, want ≥ 1e-6", c.name, l, v)
			}
		}
	}
	one := exactOptima()[0]
	for _, m := range []struct {
		name     string
		x, price []float64
	}{
		{"NaN rate", []float64{math.NaN(), 5e9}, one.price},
		{"no price", one.x, []float64{0}},
		{"too few prices", one.x, nil},
	} {
		if got := Gap(one.p, m.x, m.price); !math.IsInf(got, 1) {
			t.Errorf("%s: gap %g, want +Inf", m.name, got)
		}
	}
	// The primal is of each group's total rate: moving rate between a
	// pooled group's members leaves the gap where it was, at the optimum's
	// prices and at prices 1 % high.
	pool := exactOptima()[3]
	for _, k := range []float64{1, 1.01} {
		price := []float64{pool.price[0] * k, pool.price[1] * k}
		if a, b := Gap(pool.p, pool.x, price), Gap(pool.p, []float64{15e9, 5e9}, price); a != b {
			t.Errorf("%s, prices × %v: gap %g split evenly, %g split 15/5", pool.name, k, a, b)
		}
	}
	// A flow behind a dead link adds nothing; an α ≠ 1 optimum (two α = 2
	// flows, c/2 each at price (2/c)²) closes the gap too.
	p := core.NewProblem([]float64{10e9, 0})
	p.AddFlow([]int{0}, core.ProportionalFair())
	p.AddFlow([]int{1, 0}, core.ProportionalFair())
	if v := Gap(p, []float64{10e9, 0}, []float64{1 / 10e9, 0}); v > 1e-14 {
		t.Errorf("dead path: gap %g, want ≈ 0", v)
	}
	two := core.NewProblem([]float64{10e9})
	two.AddFlow([]int{0}, core.NewAlphaFair(2))
	two.AddFlow([]int{0}, core.NewAlphaFair(2))
	if v := Gap(two, []float64{5e9, 5e9}, []float64{1 / 25e18}); v > 1e-14 {
		t.Errorf("α = 2: gap %g, want ≈ 0", v)
	}
}

// TestKKTDeadLinkAndIdleMember: a member across a dead link is held to
// no stationarity condition (its rate is pinned at zero whatever the
// price), an idle member only to U′ ≤ its path price.
func TestKKTDeadLinkAndIdleMember(t *testing.T) {
	pf := core.ProportionalFair()
	p := core.NewProblem([]float64{10e9, 0})
	p.AddFlow([]int{0}, pf)
	p.AddFlow([]int{1, 0}, pf)
	if v := KKT(p, []float64{10e9, 0}, []float64{1 / 10e9, 0}); v > 1e-12 {
		t.Errorf("dead path: KKT %g, want 0", v)
	}
	if v := Feasibility(p, []float64{9e9, 1e9}); v != 0.1 {
		t.Errorf("rate across the dead link: feasibility %g, want 0.1", v)
	}

	// The pooled group's second path is idle. At the optimum of this
	// problem its path is dearer than the group's marginal (the plain flow
	// fills link 1 at price 2/10e9); alone, the group should use the free
	// path.
	q := core.NewProblem([]float64{10e9, 5e9})
	g := q.AddAggregate(pf)
	q.AddSubflow(g, []int{0})
	q.AddSubflow(g, []int{1})
	q.AddFlow([]int{1}, pf)
	if v := KKT(q, []float64{10e9, 0, 5e9}, []float64{1 / 10e9, 2 / 10e9}); v > 1e-12 {
		t.Errorf("idle member on a dearer path: KKT %g, want 0", v)
	}
	alone := exactOptima()[3].p
	if v := KKT(alone, []float64{10e9, 0}, []float64{1 / 10e9, 0}); v != 1 {
		t.Errorf("idle member on a free path: KKT %g, want 1", v)
	}
}

// TestMaxMin: a weighted parking lot — flow 0 (weight 1) across both
// links, flow 1 (weight 2) on the 9 Gb/s link, flow 2 (weight 1) on the
// 10 Gb/s one — is max-min fair at 3, 6 and 7 Gb/s (the narrow link
// binds flows 0 and 1 at rate/weight 3, flow 2 takes the rest), and a
// flow behind a dead link at 0. Each departure is a number: a link left
// slack, a flow below the largest rate/weight on every link it crosses,
// an overload, a bad weight or length.
func TestMaxMin(t *testing.T) {
	p := core.NewProblem([]float64{9e9, 10e9, 0})
	pf := core.ProportionalFair()
	p.AddFlow([]int{0, 1}, pf)
	p.AddFlow([]int{0}, pf)
	p.AddFlow([]int{1}, pf)
	p.AddFlow([]int{2, 1}, pf)
	w := []float64{1, 2, 1, 1}
	for _, c := range []struct {
		name string
		w, x []float64
		want float64
	}{
		{"fair", w, []float64{3e9, 6e9, 7e9, 0}, 0},
		{"flow 2 leaves 1 Gb/s", w, []float64{3e9, 6e9, 6e9, 0}, 0.1},
		{"flow 0 shortchanged", w, []float64{2.7e9, 6.3e9, 7e9, 0}, 0.45 / 3.15},
		{"narrow link 1% over", w, []float64{3.03e9, 6.06e9, 6.97e9, 0}, 0.01},
		{"zero weight", []float64{1, 0, 1, 1}, []float64{3e9, 6e9, 7e9, 0}, math.Inf(1)},
		{"too few weights", w[:3], []float64{3e9, 6e9, 7e9, 0}, math.Inf(1)},
	} {
		if got := MaxMin(p, c.w, c.x); math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Errorf("%s: %g, want %g", c.name, got, c.want)
		}
	}
}
