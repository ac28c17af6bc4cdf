package oracle

import (
	"math"
	"slices"

	"numfabric/internal/core"
)

// XWIStep is one step of the xWI iteration (§4.2) in two halves, Rates
// (Eqs. 7–8) and Update (Eqs. 9–11), for Solve and fluid.XWI; each keeps
// its own start, stop rule and finish. Multipath groups use the §6.3
// heuristic: a member's weight is the aggregate weight its own path
// price implies times its smoothed share of the group's throughput, and
// its residual reads the marginal at the group's total rate. Call Reset,
// fill the columns it returns, Prepare, then Rates and Update in turn.
// The zero value is ready to use; a step must not be used concurrently.
type XWIStep struct {
	mm           MaxMinWorkspace
	plan         core.AlphaPlan // one entry per flow; fast: it built (else us)
	fast, pooled bool           // pooled: some flow is a group member

	// Per flow, and agg per group: its total rate in the last Rates.
	paths                        [][]int
	us                           []core.Utility
	group                        []int
	share, weights, pathPrice, x []float64
	agg                          []float64
	// Per link, on touched links only; live is the touched links
	// (mm.Links) followed by the idle ones.
	load, minRes []float64
	live         []int
}

// Reset sizes the step for nf flows and returns the columns to fill:
// each flow's path, its group (an index below nf; -1: no share factor)
// and a member's throughput share.
func (s *XWIStep) Reset(nf int) (paths [][]int, group []int, share []float64) {
	if cap(s.paths) < nf {
		s.paths = make([][]int, nf)
	}
	s.paths, s.group, s.share = s.paths[:nf], growI(s.group, nf), growF(s.share, nf)
	return s.paths, s.group, s.share
}

// Prepare readies the filled columns over capacity, flow i under u(i):
// the max-min preparation of the paths and the utility plan, whose
// core.AlphaPlan.Build result it returns.
func (s *XWIStep) Prepare(capacity []float64, u func(i int) core.Utility) bool {
	nf := len(s.paths)
	s.mm.Prepare(capacity, s.paths)
	if s.fast = s.plan.Build(nf, u); !s.fast {
		s.us = slices.Grow(s.us[:0], nf)[:nf]
		for i := range s.us {
			s.us[i] = u(i)
		}
	}
	s.pooled = slices.ContainsFunc(s.group, func(g int) bool { return g >= 0 })
	s.weights, s.pathPrice, s.x, s.agg = growF(s.weights, nf), growF(s.pathPrice, nf), growF(s.x, nf), growF(s.agg, nf)
	s.load, s.minRes = growF(s.load, len(capacity)), growF(s.minRes, len(capacity))
	return s.fast
}

// Idle returns the links no flow crosses whose price is not +0: the
// ones a whole-network step decays. Every other untouched link stays +0
// under decay (+0·β = +0), so skipping it changes no bit.
func (s *XWIStep) Idle(price []float64) []int {
	touched := s.mm.Links()
	s.live = append(s.live[:0], touched...)
	for l, pl := range price {
		if math.Float64bits(pl) != 0 && !s.mm.Touches(l) {
			s.live = append(s.live, l)
		}
	}
	return s.live[len(touched):]
}

// Rates is the first half at link prices price: each flow's path price
// (summed once: Update reads it, and no price moves in between), its
// weight (Eq. 7; a member's times its share, floored so an unused path
// keeps probing) clamped to [1e-3, 100·maxCap], the max-min rates (Eq.
// 8), returned, and the group totals that smooth the shares.
func (s *XWIStep) Rates(price []float64, maxCap float64) []float64 {
	q, weights, wMax := s.pathPrice, s.weights, 100*maxCap
	for i, pth := range s.paths {
		sum := 0.0
		for _, l := range pth {
			sum += price[l]
		}
		q[i] = sum
	}
	for i, sum := range q {
		var wi float64
		if s.fast {
			wi = s.plan.Kernels[s.plan.K[i]].InverseMarginal(s.plan.W[i], sum)
		} else {
			wi = s.us[i].InverseMarginal(sum)
		}
		if s.group[i] >= 0 {
			wi *= max(s.share[i], 1e-3)
		}
		if wi < 1e-3 {
			wi = 1e-3
		} else if wi > wMax {
			wi = wMax
		}
		weights[i] = wi
	}
	x := s.mm.Fill(weights, s.x)
	if group, share, agg := s.group, s.share, s.agg; s.pooled {
		clear(agg)
		for i, g := range group {
			if g >= 0 {
				agg[g] += x[i]
			}
		}
		for i, g := range group {
			if g >= 0 && !(agg[g] <= 0) {
				// Smooth the share to stabilize the heuristic.
				share[i] = 0.5*share[i] + 0.5*x[i]/agg[g]
			}
		}
	}
	return x
}

// Update is the second half: each touched link's load and least residual
// (Eq. 9: U′ at max(group total, rate, 1) less the path price, over the
// path's length), then the β-averaged Eqs. 10–11. A link of capacity ≤ 0
// holds its price (utilization is 0/0, and a recovery warm-starts from
// the pre-fault dual); not c > 0: a NaN capacity takes the update. The
// idle links given decay toward zero.
func (s *XWIStep) Update(price, capacity []float64, eta, beta float64, idle []int) {
	touched, load, minRes := s.mm.Links(), s.load, s.minRes
	for _, l := range touched {
		load[l], minRes[l] = 0, math.Inf(1)
	}
	for i, pth := range s.paths {
		rate, a := s.x[i], s.x[i]
		if g := s.group[i]; g >= 0 {
			a = s.agg[g]
		}
		var marg float64
		if s.fast {
			marg = s.plan.Kernels[s.plan.K[i]].Marginal(s.plan.W[i], max(a, rate, 1))
		} else {
			marg = s.us[i].Marginal(max(a, rate, 1))
		}
		res := (marg - s.pathPrice[i]) / float64(len(pth))
		for _, l := range pth {
			load[l] += rate
			if res < minRes[l] {
				minRes[l] = res
			}
		}
	}
	for _, l := range touched {
		old := price[l]
		if c := capacity[l]; !(c <= 0) {
			pres := old + minRes[l]
			u := load[l] / c
			pnew := pres - eta*(1-u)*old
			if pnew < 0 {
				pnew = 0
			}
			price[l] = beta*old + (1-beta)*pnew
		}
	}
	for _, l := range idle {
		price[l] *= beta
	}
}

// SeedPrices writes xWI's cold-start prices, one per link: 1/n on a
// link n flows cross (1 if none), scaled so the first flow with a path,
// paths[i] under u(i), prices it at U′ of its fair share of its first
// link (capacity, or fallback if ≤ 0, over flow count) — weights near a
// fair share keep the first max-min sensible. Without such a flow, or
// if that marginal is not finite and positive (a dead link can make it
// +Inf, which would poison every price), the prices stay unscaled.
func SeedPrices(price, capacity []float64, paths [][]int, u func(i int) core.Utility, fallback float64) {
	clear(price)
	for _, pth := range paths {
		for _, l := range pth {
			price[l]++
		}
	}
	scale := 1.0
	if rep := slices.IndexFunc(paths, func(pth []int) bool { return len(pth) > 0 }); rep >= 0 {
		capl := capacity[paths[rep][0]]
		if capl <= 0 {
			capl = fallback
		}
		target, sum := u(rep).Marginal(capl/max(1, price[paths[rep][0]])), 0.0
		for _, l := range paths[rep] {
			sum += 1 / max(price[l], 1)
		}
		if sum > 0 && target > 0 && !math.IsInf(target, 1) {
			scale = target / sum
		}
	}
	for l, n := range price {
		price[l] = 1 / max(n, 1) * scale
	}
}
