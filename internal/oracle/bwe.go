package oracle

import "numfabric/internal/core"

// BwESingleLink computes the bandwidth-function allocation on one link
// of capacity c, per §2: find the largest fair share f such that
// Σᵢ Bᵢ(f) ≤ c, then allocate Bᵢ(f) to each flow. (Figure 2's
// water-filling procedure.) If even an arbitrarily large f cannot fill
// the link (all functions capped), every flow gets its maximum.
func BwESingleLink(c float64, funcs []*core.BandwidthFunction) []float64 {
	f := bweFillShare(c, funcs)
	out := make([]float64, len(funcs))
	for i, b := range funcs {
		out[i] = b.Eval(f)
	}
	return out
}

// bweFillShare returns the largest common fair share f such that the
// flows' demand fits in c. The value is found by bisection over f (the
// demand is non-decreasing in f).
func bweFillShare(c float64, funcs []*core.BandwidthFunction) float64 {
	demand := func(f float64) float64 {
		sum := 0.0
		for _, b := range funcs {
			sum += b.Eval(f)
		}
		return sum
	}
	if demand(0) >= c {
		return 0
	}
	lo, hi := 0.0, 1.0
	for demand(hi) < c && hi < 1e12 {
		hi *= 2
	}
	if demand(hi) < c {
		return hi // capacity cannot be filled; everyone maxes out
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if demand(mid) < c {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
