package core

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b)/den < rel
}

func TestAlphaFairMarginalInverseRoundTrip(t *testing.T) {
	for _, alpha := range []float64{0.125, 0.5, 1, 2, 4} {
		for _, w := range []float64{1, 2.5, 10} {
			u := NewWeightedAlphaFair(alpha, w)
			for _, x := range []float64{1e6, 1e9, 5e9, 4e10} {
				p := u.Marginal(x)
				back := u.InverseMarginal(p)
				if !almostEq(back, x, 1e-9) {
					t.Errorf("alpha=%v w=%v: InverseMarginal(Marginal(%v)) = %v", alpha, w, x, back)
				}
			}
		}
	}
}

func TestAlphaFairMarginalDecreasing(t *testing.T) {
	f := func(alphaRaw, xRaw, yRaw float64) bool {
		alpha := 0.1 + math.Mod(math.Abs(alphaRaw), 4)
		x := 1 + math.Mod(math.Abs(xRaw), 1e10)
		y := 1 + math.Mod(math.Abs(yRaw), 1e10)
		if x > y {
			x, y = y, x
		}
		if x == y {
			return true
		}
		u := NewAlphaFair(alpha)
		return u.Marginal(x) >= u.Marginal(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlphaFairConcave(t *testing.T) {
	// U((x+y)/2) >= (U(x)+U(y))/2 for all alpha.
	f := func(alphaRaw, xRaw, yRaw float64) bool {
		alpha := 0.1 + math.Mod(math.Abs(alphaRaw), 4)
		x := 10 + math.Mod(math.Abs(xRaw), 1e10)
		y := 10 + math.Mod(math.Abs(yRaw), 1e10)
		u := NewAlphaFair(alpha)
		mid := u.Value((x + y) / 2)
		avg := (u.Value(x) + u.Value(y)) / 2
		return mid >= avg-1e-9*math.Abs(avg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProportionalFairIsLog(t *testing.T) {
	u := ProportionalFair()
	if !almostEq(u.Value(math.E), 1, 1e-12) {
		t.Errorf("log utility at e = %v, want 1", u.Value(math.E))
	}
	if !almostEq(u.Marginal(4), 0.25, 1e-12) {
		t.Errorf("U'(4) = %v, want 0.25", u.Marginal(4))
	}
	if !almostEq(u.InverseMarginal(0.25), 4, 1e-12) {
		t.Errorf("U'^-1(0.25) = %v, want 4", u.InverseMarginal(0.25))
	}
}

func TestWeightedAlphaFairWeightScalesRate(t *testing.T) {
	// At a common price p, rates are proportional to weights:
	// x = w * p^(-1/alpha).
	alpha := 2.0
	u1 := NewWeightedAlphaFair(alpha, 1)
	u3 := NewWeightedAlphaFair(alpha, 3)
	p := 1e-18
	if !almostEq(u3.InverseMarginal(p), 3*u1.InverseMarginal(p), 1e-12) {
		t.Error("weighted rate not proportional to weight")
	}
}

func TestFCTMinSmallerFlowsWin(t *testing.T) {
	// At any common path price, a smaller flow computes a higher rate
	// (weight); this is what approximates shortest-flow-first.
	uSmall := FCTMin(10_000, 0.125)
	uBig := FCTMin(10_000_000, 0.125)
	for _, p := range []float64{1e-6, 1e-3, 1} {
		if uSmall.InverseMarginal(p) <= uBig.InverseMarginal(p) {
			t.Errorf("price %v: small flow weight %v <= big flow weight %v",
				p, uSmall.InverseMarginal(p), uBig.InverseMarginal(p))
		}
	}
}

func TestFCTMinMatchesTableForm(t *testing.T) {
	// U'(x) must equal (1/s) x^(-eps).
	s := int64(1 << 20)
	eps := 0.125
	u := FCTMin(s, eps)
	for _, x := range []float64{1e3, 1e6, 1e9} {
		want := (1 / float64(s)) * math.Pow(x, -eps)
		if !almostEq(u.Marginal(x), want, 1e-9) {
			t.Errorf("U'(%v) = %v, want %v", x, u.Marginal(x), want)
		}
	}
}

func TestFCTMinDefaults(t *testing.T) {
	u := FCTMin(0, 0) // degenerate inputs take defaults
	if u.Alpha != 0.125 {
		t.Errorf("default epsilon = %v, want 0.125", u.Alpha)
	}
	if u.Weight != 1 { // size clamped to 1 => weight 1
		t.Errorf("weight = %v, want 1", u.Weight)
	}
}

func TestDeadlineEarlierWins(t *testing.T) {
	uSoon := Deadline(0.001, 0.125)
	uLate := Deadline(1.0, 0.125)
	if uSoon.InverseMarginal(1e-3) <= uLate.InverseMarginal(1e-3) {
		t.Error("earlier deadline should get higher weight")
	}
}

// TestPriorityWeightsStayOrdered: for every ε, FCTMin's and Deadline's
// weights are positive, finite and non-increasing in the size / the
// time to the deadline — including the ε small enough that the raw
// power leaves the float64 range. Before the clamp FCTMin(1e8, 0.01)
// had weight 0, which AlphaFair reads as 1: the largest flow outranked
// every other.
func TestPriorityWeightsStayOrdered(t *testing.T) {
	sizes := []int64{1, 2, 1_000, 10_000, 1_000_000, 100_000_000, 1 << 40, math.MaxInt64}
	secs := []float64{1e-9, 1e-6, 1e-3, 0.5, 1, 2, 60, 3600, 1e9}
	for _, eps := range []float64{0.001, 0.01, 0.02, 0.125, 0.5, 1, 4} {
		prev := math.Inf(1)
		for _, s := range sizes {
			w := FCTMin(s, eps).Weight
			if !(w > 0 && w <= math.MaxFloat64 && w <= prev) {
				t.Errorf("FCTMin(%d, %g).Weight = %g after %g", s, eps, w, prev)
			}
			prev = w
		}
		prev = math.Inf(1)
		for _, d := range secs {
			w := Deadline(d, eps).Weight
			if !(w > 0 && w <= math.MaxFloat64 && w <= prev) {
				t.Errorf("Deadline(%g, %g).Weight = %g after %g", d, eps, w, prev)
			}
			prev = w
		}
	}
	// The case from the field: shortest-flow-first must not reverse.
	small, big := FCTMin(1_000, 0.01), FCTMin(100_000_000, 0.01)
	if s, b := small.InverseMarginal(1e-3), big.InverseMarginal(1e-3); !(s >= b) {
		t.Errorf("ε = 0.01: 1 KB flow's weight %g < 100 MB flow's %g", s, b)
	}
}

func TestAlphaFairValueOrdering(t *testing.T) {
	// Utility is increasing in x.
	for _, alpha := range []float64{0.5, 1, 2} {
		u := NewAlphaFair(alpha)
		if u.Value(2e9) <= u.Value(1e9) {
			t.Errorf("alpha=%v: utility not increasing", alpha)
		}
	}
}

func TestInverseMarginalZeroPrice(t *testing.T) {
	u := NewAlphaFair(1)
	if !math.IsInf(u.InverseMarginal(0), 1) {
		t.Error("zero price should give infinite demand")
	}
}
