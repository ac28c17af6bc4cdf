package core

import (
	"math"
	"testing"
)

const gbps = 1e9

// fig2Flow1 and fig2Flow2 are the two bandwidth functions of the
// paper's Figure 2: flow 1 has strict priority for the first 10 Gb/s
// (f <= 2); then flow 2 ramps at twice flow 1's slope until it reaches
// 10 Gb/s at f = 2.5; beyond that flow 1 keeps growing and flow 2 is
// capped.
func fig2Flow1() *BandwidthFunction {
	return MustBandwidthFunction([]BWPoint{
		{0, 0}, {2, 10 * gbps}, {2.5, 15 * gbps}, {5, 40 * gbps},
	})
}

func fig2Flow2() *BandwidthFunction {
	return MustBandwidthFunction([]BWPoint{
		{0, 0}, {2, 0}, {2.5, 10 * gbps}, {5, 10 * gbps},
	})
}

func TestBandwidthFunctionEval(t *testing.T) {
	b := fig2Flow1()
	cases := []struct{ f, want float64 }{
		{0, 0},
		{1, 5 * gbps},
		{2, 10 * gbps},
		{2.25, 12.5 * gbps},
		{2.5, 15 * gbps},
		{5, 40 * gbps},
	}
	for _, c := range cases {
		if got := b.Eval(c.f); !almostEq(got, c.want, 1e-9) && !(got == 0 && c.want == 0) {
			t.Errorf("B1(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestBandwidthFunctionFlatSegmentsTilted(t *testing.T) {
	b := fig2Flow2()
	// The [0,2] flat-at-zero segment gets a tiny positive slope so the
	// function stays invertible.
	if got := b.Eval(1); got <= 0 || got > 10 {
		t.Errorf("tilted flat segment value = %v, want tiny positive", got)
	}
	if got := b.Eval(2.5); !almostEq(got, 10*gbps, 1e-6) {
		t.Errorf("B2(2.5) = %v, want 10G", got)
	}
}

func TestBandwidthFunctionInverseRoundTrip(t *testing.T) {
	for _, b := range []*BandwidthFunction{fig2Flow1(), fig2Flow2()} {
		for _, f := range []float64{0.5, 1, 2.1, 2.5, 3, 4.9} {
			x := b.Eval(f)
			back := b.Inverse(x)
			// Tilted flat segments lose precision to float cancellation
			// around huge bandwidth values; 1e-6 relative is plenty.
			if !almostEq(back, f, 1e-6) {
				t.Errorf("Inverse(Eval(%v)) = %v", f, back)
			}
		}
	}
}

func TestBandwidthFunctionExtrapolation(t *testing.T) {
	b := fig2Flow1()
	// Past the last vertex, the last slope (10 Gb/s per unit share)
	// continues.
	want := 40*gbps + 10*gbps
	if got := b.Eval(6); !almostEq(got, want, 1e-9) {
		t.Errorf("B1(6) = %v, want %v", got, want)
	}
}

func TestBandwidthFunctionValidation(t *testing.T) {
	if _, err := NewBandwidthFunction(nil); err == nil {
		t.Error("empty vertex list should fail")
	}
	if _, err := NewBandwidthFunction([]BWPoint{{0, 5}}); err == nil {
		t.Error("B(0) != 0 should fail")
	}
	if _, err := NewBandwidthFunction([]BWPoint{{0, 0}, {1, 10}, {2, 5}}); err == nil {
		t.Error("decreasing bandwidth should fail")
	}
	// Non-finite vertices: Eval cannot search past a NaN fair share, and
	// an infinite one or a non-finite bandwidth leaves BwE nothing to
	// allocate.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		pts  []BWPoint
	}{
		{"NaN fair share", []BWPoint{{0, 0}, {nan, 10}}},
		{"+Inf fair share", []BWPoint{{0, 0}, {inf, 10}}},
		{"-Inf fair share", []BWPoint{{-inf, 0}, {1, 10}}},
		{"NaN bandwidth", []BWPoint{{0, 0}, {1, nan}}},
		{"+Inf bandwidth", []BWPoint{{0, 0}, {1, inf}}},
		{"-Inf bandwidth", []BWPoint{{0, 0}, {1, -inf}}},
	} {
		if _, err := NewBandwidthFunction(c.pts); err == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
	// Missing origin gets prepended.
	b, err := NewBandwidthFunction([]BWPoint{{1, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Eval(0) != 0 {
		t.Error("origin not prepended")
	}
}

func TestBWUtilityMarginalMatchesDefinition(t *testing.T) {
	// U'(x) = F(x)^(-alpha).
	b := fig2Flow1()
	u := NewBWUtility(b, 5)
	for _, x := range []float64{2 * gbps, 8 * gbps, 12 * gbps} {
		want := math.Pow(b.Inverse(x), -5)
		if !almostEq(u.Marginal(x), want, 1e-9) {
			t.Errorf("U'(%v) = %v, want %v", x, u.Marginal(x), want)
		}
	}
}

func TestBWUtilityInverseMarginalRoundTrip(t *testing.T) {
	u := NewBWUtility(fig2Flow1(), 5)
	for _, x := range []float64{1 * gbps, 5 * gbps, 12 * gbps, 20 * gbps} {
		p := u.Marginal(x)
		if back := u.InverseMarginal(p); !almostEq(back, x, 1e-6) {
			t.Errorf("round trip at %v: got %v", x, back)
		}
	}
}

func TestBWUtilityValueIncreasingConcave(t *testing.T) {
	u := NewBWUtility(fig2Flow1(), 2)
	prev := u.Value(0.5 * gbps)
	prevDelta := math.Inf(1)
	for x := 1 * gbps; x <= 20*gbps; x += 0.5 * gbps {
		v := u.Value(x)
		delta := v - prev
		if delta <= 0 {
			t.Fatalf("utility not increasing at %v", x)
		}
		if delta > prevDelta*(1+1e-9) {
			t.Fatalf("utility not concave at %v (delta %v > prev %v)", x, delta, prevDelta)
		}
		prev, prevDelta = v, delta
	}
}

func TestBWUtilityValueMatchesNumericIntegral(t *testing.T) {
	b := fig2Flow1()
	u := NewBWUtility(b, 2)
	// Numerically integrate F(tau)^-2 from small x0 to x and compare.
	x0 := 0.1 * gbps
	x := 12 * gbps
	steps := 200000
	sum := 0.0
	h := (x - x0) / float64(steps)
	for i := 0; i < steps; i++ {
		tau := x0 + (float64(i)+0.5)*h
		sum += math.Pow(b.Inverse(tau), -2) * h
	}
	analytic := u.Value(x) - u.Value(x0)
	if !almostEq(sum, analytic, 1e-3) {
		t.Errorf("numeric %v vs analytic %v", sum, analytic)
	}
}

func TestBWUtilityDefaultAlpha(t *testing.T) {
	u := NewBWUtility(fig2Flow1(), 0)
	if u.Alpha != 5 {
		t.Errorf("default alpha = %v, want 5", u.Alpha)
	}
}
