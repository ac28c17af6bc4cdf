package workload

import (
	"math"
	"sort"
	"testing"
)

// sampleFormula and meanFormula are SizeCDF.Sample and Mean written
// from the formulas: a binary search and three logarithms per draw, a
// draw per midpoint. They are the reference every faster form must
// match bit for bit — the sizes feed every schedule, and the mean sets
// every Poisson arrival rate.
func sampleFormula(pts []cdfPoint, u float64) int64 {
	if u <= pts[0].p {
		return int64(pts[0].bytes)
	}
	if u >= pts[len(pts)-1].p {
		return int64(pts[len(pts)-1].bytes)
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].p >= u })
	lo, hi := pts[i-1], pts[i]
	frac := (u - lo.p) / (hi.p - lo.p)
	logSize := math.Log(lo.bytes) + frac*(math.Log(hi.bytes)-math.Log(lo.bytes))
	return int64(math.Exp(logSize))
}

func meanFormula(pts []cdfPoint) float64 {
	const steps = 100000
	sum := 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		sum += float64(sampleFormula(pts, u))
	}
	return sum / steps
}

// TestSizeCDFMatchesFormulas holds Sample and Mean of every built-in
// distribution to the formulas bit for bit: Sample at 10⁶+1 evenly
// spaced quantiles and on and beside every anchor, Mean exactly.
func TestSizeCDFMatchesFormulas(t *testing.T) {
	for _, c := range []*SizeCDF{WebSearch(), Enterprise(), Uniform(1), Uniform(12345), Uniform(1 << 30)} {
		if got, want := c.Mean(), meanFormula(c.pts); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Mean %v, formula %v", c.Name(), got, want)
		}
		us := []float64{-1, 0, 2, math.Inf(-1), math.Inf(1)}
		for _, pt := range c.pts {
			us = append(us, math.Nextafter(pt.p, 0), pt.p, math.Nextafter(pt.p, 2))
		}
		const n = 1_000_000
		for i := 0; i <= n; i++ {
			us = append(us, float64(i)/n)
		}
		bad := 0
		for _, u := range us {
			if got, want := c.Sample(u), sampleFormula(c.pts, u); got != want && bad < 5 {
				t.Errorf("%s: Sample(%v) = %d, formula %d", c.Name(), u, got, want)
				bad++
			}
		}
	}
}
