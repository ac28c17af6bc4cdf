// Package cert certifies a bandwidth allocation against the NUM problem
// it claims to solve (Eq. 1: maximize Σ_g U_g(Σ_{i∈g} x_i) subject to
// R·x ≤ c, x ≥ 0), from the problem and the claimed rates and link
// prices alone — or, for a max-min allocator, against weighted max-min
// fairness (MaxMin), from the rates and the flows' weights. It imports
// no solver: what it reads is a core.Problem — capacities, paths, group
// membership, utilities — and two vectors.
//
// Each check returns the worst relative violation it finds, a number and
// not a verdict, so every allocator states its own tolerance: 0 is exact,
// and +Inf marks a NaN or an infinite rate.
package cert

import (
	"math"

	"numfabric/internal/core"
)

// LinkLoads returns the per-link aggregate traffic of rates x.
func LinkLoads(p *core.Problem, x []float64) []float64 {
	load := make([]float64, len(p.Capacity))
	for i, f := range p.Flows {
		for _, l := range f.Links {
			load[l] += x[i]
		}
	}
	return load
}

// Feasibility returns the worst relative violation of the primal
// constraints by rates x (one per flow of p):
//   - a live link's load above its capacity, (load − c)/c;
//   - a dead link's (capacity ≤ 0) load, relative to the largest
//     capacity: no rate may cross a dead link;
//   - a negative rate, relative to the largest capacity.
func Feasibility(p *core.Problem, x []float64) float64 {
	if len(x) != len(p.Flows) {
		return math.Inf(1)
	}
	scale := 0.0
	for _, c := range p.Capacity {
		scale = max(scale, c)
	}
	if scale <= 0 {
		scale = 1
	}
	worst := 0.0
	for _, r := range x {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return math.Inf(1)
		}
		worst = max(worst, -r/scale)
	}
	for l, y := range LinkLoads(p, x) {
		if c := p.Capacity[l]; c > 0 {
			worst = max(worst, (y-c)/c)
		} else {
			worst = max(worst, y/scale)
		}
	}
	return worst
}

// MaxMin returns the worst relative violation of weighted max-min
// fairness by rates x under weights w (one per flow, finite and > 0):
// the primal constraints as Feasibility reads them, and the bottleneck
// certificate — every flow crosses a saturated link on which its
// rate/weight is maximal. On link l a flow f falls short by the larger
// of l's slack (c − load)/c (none on a dead link) and f's rate/weight
// below the largest on l, relative to that largest; f's violation is its
// least shortfall over its path, +Inf for an empty path.
func MaxMin(p *core.Problem, w, x []float64) float64 {
	worst := Feasibility(p, x)
	if len(w) != len(x) || math.IsInf(worst, 1) {
		return math.Inf(1)
	}
	load := LinkLoads(p, x)
	top := make([]float64, len(p.Capacity))
	for i, f := range p.Flows {
		if !(w[i] > 0) || math.IsInf(w[i], 1) {
			return math.Inf(1)
		}
		for _, l := range f.Links {
			top[l] = max(top[l], x[i]/w[i])
		}
	}
	for i, f := range p.Flows {
		least := math.Inf(1)
		for _, l := range f.Links {
			v := 0.0
			if c := p.Capacity[l]; c > 0 {
				v = (c - load[l]) / c
			}
			if t := top[l]; t > 0 {
				v = max(v, (t-x[i]/w[i])/t)
			}
			least = min(least, v)
		}
		worst = max(worst, least)
	}
	return worst
}

// KKT returns the worst relative violation of the NUM optimality
// conditions by rates x (one per flow) and prices (one per link):
//   - dual feasibility: a negative price, relative to the largest price
//     magnitude;
//   - complementary slackness on each live link: price/that magnitude ×
//     (c − load)/c, so a priced link must be saturated;
//   - stationarity, per group g at its total rate y_g and per member f
//     at its path price q_f: |U_g′(y_g) − q_f| relative to the larger of
//     the two where f carries rate, and only U_g′(y_g) above q_f where f
//     is idle. A member that crosses a dead link has an unbounded path
//     price and is held to neither.
//
// The multipath case is the point of the per-group form: the marginal
// is of the group's total rate, never of one member's.
func KKT(p *core.Problem, x, price []float64) float64 {
	if len(x) != len(p.Flows) || len(price) != len(p.Capacity) {
		return math.Inf(1)
	}
	pmax := 0.0
	for _, q := range price {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return math.Inf(1)
		}
		pmax = max(pmax, math.Abs(q))
	}
	worst := 0.0
	if pmax > 0 {
		for l, y := range LinkLoads(p, x) {
			q := price[l] / pmax
			worst = max(worst, -q)
			if c := p.Capacity[l]; c > 0 && q > 0 {
				worst = max(worst, q*(c-y)/c)
			}
		}
	}
	for _, g := range p.Groups {
		y := 0.0
		for _, f := range g.Flows {
			y += x[f]
		}
		marg := g.U.Marginal(y)
		for _, f := range g.Flows {
			q, dead := pathPrice(p, f, price)
			switch {
			case dead:
			case x[f] > 0:
				worst = max(worst, relGap(marg, q))
			case marg > q:
				worst = max(worst, relGap(marg, q))
			}
		}
	}
	return worst
}

// pathPrice is flow f's path price, and whether the path crosses a dead
// link.
func pathPrice(p *core.Problem, f int, price []float64) (q float64, dead bool) {
	for _, l := range p.Flows[f].Links {
		q += price[l]
		dead = dead || !(p.Capacity[l] > 0)
	}
	return q, dead
}

// relGap is |a − b| relative to the larger magnitude: 0 when equal, 1
// when one side is infinite and the other not, +Inf for a NaN.
func relGap(a, b float64) float64 {
	switch {
	case a == b:
		return 0
	case math.IsNaN(a) || math.IsNaN(b):
		return math.Inf(1)
	case math.IsInf(a, 0) || math.IsInf(b, 0):
		return 1
	}
	return math.Abs(a-b) / max(math.Abs(a), math.Abs(b))
}

// Gap returns the relative NUM duality gap of rates x (one per flow)
// and prices (one per link): the dual objective
//
//	D = Σ_l price_l·c_l + Σ_g sup_{y ≥ 0} [U_g(y) − q_g·y]
//
// less the primal Σ_g U_g(y_g) at each group's total rate y_g, in
// magnitude, relative to Σ_l price_l·c_l (what the utilities pay at the
// optimum). q_g is the cheapest path price among g's members that cross
// no dead link; the supremum is taken at U_g′⁻¹(q_g), which for an α-fair
// group is (α/(1−α))·x̂·q_g, or w(log(w/q_g) − 1) at α = 1, with
// x̂ = w·q_g^(−1/α). Dead links and groups every member of which crosses
// one add nothing. +Inf marks a NaN, a non-finite dual (a priced-out
// group at price 0) or no priced capacity at all.
func Gap(p *core.Problem, x, price []float64) float64 {
	if len(x) != len(p.Flows) || len(price) != len(p.Capacity) {
		return math.Inf(1)
	}
	scale := 0.0
	for l, q := range price {
		if c := p.Capacity[l]; c > 0 {
			scale += q * c
		}
	}
	gap := scale
	for _, g := range p.Groups {
		y, q := 0.0, math.Inf(1)
		for _, f := range g.Flows {
			y += x[f]
			if qf, dead := pathPrice(p, f, price); !dead {
				q = min(q, qf)
			}
		}
		if math.IsInf(q, 1) {
			continue
		}
		xq := g.U.InverseMarginal(q)
		gap += g.U.Value(xq) - q*xq - g.U.Value(y)
	}
	if !(scale > 0) || math.IsNaN(gap) || math.IsInf(gap, 0) {
		return math.Inf(1)
	}
	return math.Abs(gap) / scale
}
