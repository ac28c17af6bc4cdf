package oracle

import (
	"math"

	"numfabric/internal/core"
)

// SolveOptions tunes the fluid solvers.
type SolveOptions struct {
	// MaxIter bounds the number of iterations (default 20000).
	MaxIter int
	// Tol is the relative rate-change convergence tolerance
	// (default 1e-9).
	Tol float64
	// Eta is the xWI underutilization gain (Eq. 10; default 5, per
	// Table 2 — xWI is largely insensitive to it).
	Eta float64
	// Beta is the xWI price-averaging parameter (Eq. 11; default 0.5).
	Beta float64
	// InitPrices, if non-nil, warm-starts the link prices (e.g. from a
	// previous solve of a nearby problem); must have one entry per
	// link. Warm starts cut iteration counts dramatically in
	// event-driven fluid simulations where the flow set changes
	// incrementally.
	InitPrices []float64
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 20000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.Eta <= 0 {
		o.Eta = 5
	}
	if o.Beta <= 0 || o.Beta >= 1 {
		o.Beta = 0.5
	}
	return o
}

// Result reports a solved allocation.
type Result struct {
	// Rates holds one rate per flow (bits/second).
	Rates []float64
	// Prices holds the final per-link prices (dual variables).
	Prices []float64
	// Iterations is the number of iterations performed.
	Iterations int
	// Converged reports whether the tolerance was met before MaxIter.
	Converged bool
}

// Solve computes the NUM-optimal allocation for p using the fluid xWI
// iteration (§4.2): prices → weights (Eq. 7) → exact weighted max-min
// (Eq. 8, via progressive filling) → price update (Eqs. 9–11). The
// paper proves this dynamical system's unique fixed point solves the
// NUM problem; we iterate it to numerical convergence.
//
// Multipath groups use the paper's §6.3 heuristic: each subflow's
// weight is the aggregate weight from its own path price, scaled by
// the subflow's share of the aggregate's throughput.
//
// The result's slices are the caller's own. Callers that solve one
// problem after another (an event-driven simulation re-solving at
// every arrival and departure) should hold a SolveWorkspace instead.
func Solve(p *core.Problem, opts SolveOptions) Result {
	var ws SolveWorkspace
	return ws.Solve(p, opts)
}

// SolveWorkspace holds every buffer of a Solve so that a sequence of
// solves allocates only when a problem outgrows its predecessors, and
// one solve allocates nothing per iteration. The zero value is ready
// to use; a workspace must not be used concurrently.
type SolveWorkspace struct {
	mm MaxMinWorkspace
	// plan is the α-fair utility plan, one entry per group.
	plan core.AlphaPlan

	// Per flow.
	paths     [][]int
	weights   []float64
	share     []float64 // multipath throughput shares
	pathPrice []float64
	x, prevX  []float64

	// Per link. price is fully defined; the others are written and
	// read on touched or live links only.
	price        []float64
	load, minRes []float64
	cnt          []int
	// live lists the only links an iteration visits: the touched links
	// (mm.Links) followed by the idle ones — links no flow crosses whose
	// price was non-zero on entry.
	live []int

	nw    newtonWork
	route int // the last Solve's route, for solveProbe
}

// Solve is Solve on the workspace's buffers. Result.Rates and
// Result.Prices alias them: they are valid until the next Solve on
// this workspace (passing the previous Prices back as InitPrices is
// fine). A problem of single-flow groups on non-empty paths under one α,
// every touched link finite and > 0, is solved exactly: a star in closed
// form, anything else by a dual Newton that must certify its result.
// Everything else, and whatever the Newton does not certify, is iterated
// from the caller's warm start.
func (ws *SolveWorkspace) Solve(p *core.Problem, opts SolveOptions) Result {
	opts = opts.withDefaults()
	if len(p.Flows) == 0 {
		return Result{Rates: nil, Prices: make([]float64, len(p.Capacity)), Converged: true}
	}
	fast := ws.prepare(p)
	res, ok := Result{}, false
	if ws.route = routeIterate; ws.exact(p, fast) {
		ws.route = routeStar
		if res, ok = ws.closedForm(p); !ok {
			ws.route = routeNewton
			if res, ok = ws.newton(p, opts); !ok {
				ws.route = routeFallback
			}
		}
	}
	if !ok {
		res = ws.iterate(p, opts, fast)
	}
	if solveProbe != nil {
		solveProbe(ws, p, res)
	}
	return res
}

// The routes a Solve takes, recorded for solveProbe.
const (
	routeStar = iota
	routeNewton
	routeFallback // the Newton did not certify
	routeIterate
)

// prepare does what both paths need: the max-min preparation (touched
// links, flow counts, adjacency) and the utility plan (Build's result).
func (ws *SolveWorkspace) prepare(p *core.Problem) bool {
	nf := len(p.Flows)
	if cap(ws.paths) < nf {
		ws.paths = make([][]int, nf)
	}
	paths := ws.paths[:nf]
	for i, f := range p.Flows {
		paths[i] = f.Links
	}
	ws.mm.Prepare(p.Capacity, paths)
	return ws.plan.Build(len(p.Groups), func(g int) core.Utility { return p.Groups[g].U })
}

// exact reports whether the prepared p is one the exact solvers take:
// every group one flow on a non-empty path, one α, every touched link
// finite and > 0.
func (ws *SolveWorkspace) exact(p *core.Problem, fast bool) bool {
	if !fast || len(ws.plan.Kernels) != 1 {
		return false
	}
	for _, grp := range p.Groups {
		if len(grp.Flows) != 1 || len(p.Flows[grp.Flows[0]].Links) == 0 {
			return false
		}
	}
	for _, l := range ws.mm.used {
		if c := p.Capacity[l]; !(c > 0) || math.IsInf(c, 1) {
			return false
		}
	}
	return true
}

// closedForm solves the prepared exact p if it is a star — every touched
// link crossed by one flow or by all — and reports whether it was. Flow i
// takes min(w_i·t, c_i), c_i its private bottleneck, t filling C, the least
// capacity all flows cross: rounds cap the flows with c_i at or below the
// level (which only rises), in weights scaled by the heaviest uncapped one
// (FCTMin's span 2^-1022 to MaxFloat64). Prices: U′ of that flow on C's
// first link, U′(c_i) less that on a capped flow's first private
// bottleneck, 0 elsewhere (as the iteration's projection leaves slack).
func (ws *SolveWorkspace) closedForm(p *core.Problem) (Result, bool) {
	nf, mm, plan := len(p.Flows), &ws.mm, &ws.plan
	ws.weights, ws.x = growF(ws.weights, nf), growF(ws.x, nf)
	// w[i]: flow i's weight while uncapped, 0 once x[i] is final (c_i until then).
	w, x := ws.weights, ws.x
	for g, grp := range p.Groups {
		w[grp.Flows[0]], x[grp.Flows[0]] = plan.W[g], math.Inf(1)
	}
	shared, rem := -1, math.Inf(1)
	for s, l := range mm.used {
		switch c, n, i := p.Capacity[l], mm.activeCount[l], mm.linkFlows[mm.start[s]]; {
		case n != 1 && n != nf:
			return Result{}, false
		case n == nf && c < rem:
			shared, rem = l, c
		case n < nf && c < x[i]:
			x[i] = c
		}
	}
	if shared < 0 {
		clear(w)
	}
	var m, level float64 // the heaviest uncapped weight (0: none) and its rate
	for capped := true; capped; {
		m, capped = 0, false
		for _, wi := range w {
			m = max(m, wi)
		}
		if m == 0 {
			break
		}
		sum := 0.0
		for _, wi := range w {
			sum += wi / m
		}
		level = rem / sum
		for i, wi := range w {
			if wi > 0 && x[i] <= wi/m*level {
				rem, w[i], capped = max(rem-x[i], 0), 0, true
			}
		}
	}
	ws.price = growF(ws.price, len(p.Capacity))
	price, k, q := ws.price, &plan.Kernels[0], 0.0
	clear(price)
	if m > 0 {
		q = k.Marginal(m, level)
		price[shared] = q
	}
	for i, f := range p.Flows {
		if w[i] > 0 {
			x[i] = w[i] / m * level
			continue
		}
		for _, l := range f.Links {
			if mm.activeCount[l] == 1 && p.Capacity[l] == x[i] {
				price[l] = max(0, k.Marginal(plan.W[f.Group], x[i])-q)
				break
			}
		}
	}
	return Result{Rates: x, Prices: price, Iterations: 1, Converged: true}, true
}

// iterate is the xWI iteration; fast is prepare's result.
func (ws *SolveWorkspace) iterate(p *core.Problem, opts SolveOptions, fast bool) Result {
	nf, nl := len(p.Flows), len(p.Capacity)
	paths, touched := ws.paths[:nf], ws.mm.Links()

	// The builtin max, not math.Max (an out-of-line call on amd64): the
	// same results, NaN and ±0 included.
	maxCap := 0.0
	for _, c := range p.Capacity {
		maxCap = max(maxCap, c)
	}
	if maxCap <= 0 {
		// Every link dead: keep the weight window finite; the max-min
		// step pins all rates at zero regardless.
		maxCap = 1
	}
	wMin, wMax := 1e-3, 100*maxCap

	// Initialize prices so that initial weights are on the order of a
	// per-flow fair share, which keeps the first max-min sensible.
	ws.price = growF(ws.price, nl)
	price := ws.price
	if opts.InitPrices != nil && len(opts.InitPrices) == nl {
		copy(price, opts.InitPrices)
	} else {
		ws.cnt = growI(ws.cnt, nl)
		cnt := ws.cnt
		clear(cnt)
		for _, pth := range paths {
			for _, l := range pth {
				cnt[l]++
			}
		}
		for l := range price {
			n := cnt[l]
			if n == 0 {
				n = 1
			}
			price[l] = 1.0 / float64(n)
		}
		// Scale prices so a typical flow's U'⁻¹(path price) is near its
		// fair share.
		scale := 1.0
		for g := range p.Groups {
			grp := &p.Groups[g]
			f0 := grp.Flows[0]
			capl := p.Capacity[paths[f0][0]]
			if capl <= 0 {
				// Dead representative link (fault injection): scale
				// against the largest capacity instead.
				capl = maxCap
			}
			fair := capl / max(1, float64(cnt[paths[f0][0]]))
			target := grp.U.Marginal(fair)
			sum := 0.0
			for _, l := range paths[f0] {
				sum += price[l]
			}
			// Guard against a dead first link: fair == 0 can make the
			// marginal +Inf, and an infinite scale poisons every price.
			if sum > 0 && target > 0 && !math.IsInf(target, 1) {
				scale = target / sum
			}
			break
		}
		for l := range price {
			price[l] *= scale
		}
	}

	// The live links: an iteration reads and writes link state only on
	// links some flow crosses (touched) and on links whose price is
	// not +0 on entry (idle: their prices decay toward zero). Every
	// other link holds price +0, stays +0 under price *= β, adds 0 to
	// the convergence maxima below, and is left at +0 by the final
	// projection — so skipping it changes no bit of the result. After
	// a warm start almost every link is such a link.
	live := append(ws.live[:0], touched...)
	for l, pl := range price {
		if math.Float64bits(pl) != 0 && !ws.mm.Touches(l) {
			live = append(live, l)
		}
	}
	ws.live = live
	idle := live[len(touched):]

	ws.weights = growF(ws.weights, nf)
	ws.share = growF(ws.share, nf)
	ws.pathPrice = growF(ws.pathPrice, nf)
	ws.x = growF(ws.x, nf)
	ws.prevX = growF(ws.prevX, nf)
	weights, share, pathPrice, x, prevX := ws.weights, ws.share, ws.pathPrice, ws.x, ws.prevX
	clear(weights)
	for g := range p.Groups {
		n := float64(len(p.Groups[g].Flows))
		for _, f := range p.Groups[g].Flows {
			share[f] = 1 / n
		}
	}
	ws.load = growF(ws.load, nl)
	ws.minRes = growF(ws.minRes, nl)
	load, minRes := ws.load, ws.minRes
	// fast: group g evaluates kern[gk[g]] at weight gw[g] instead of
	// calling grp.U (core.AlphaPlan; the same bits).
	gw, gk, kern := ws.plan.W, ws.plan.K, ws.plan.Kernels

	it := 0
	converged := false
	for ; it < opts.MaxIter; it++ {
		// Weight assignment (Eq. 7), with the multipath share heuristic.
		// Each flow's path price is summed once here and read again by
		// the residual below: no price is written in between.
		for g := range p.Groups {
			grp := &p.Groups[g]
			for _, f := range grp.Flows {
				sum := 0.0
				for _, l := range paths[f] {
					sum += price[l]
				}
				pathPrice[f] = sum
				var w float64
				if fast {
					w = kern[gk[g]].InverseMarginal(gw[g], sum)
				} else {
					w = grp.U.InverseMarginal(sum)
				}
				if len(grp.Flows) > 1 {
					// Share floor lets an unused path keep probing.
					w *= max(share[f], 1e-3)
				}
				weights[f] = clamp(w, wMin, wMax)
			}
		}

		// Swift: exact weighted max-min (Eq. 8).
		ws.mm.Fill(weights, x)

		// Update multipath shares from realized throughput.
		for g := range p.Groups {
			grp := &p.Groups[g]
			if len(grp.Flows) <= 1 {
				continue
			}
			total := 0.0
			for _, f := range grp.Flows {
				total += x[f]
			}
			if total <= 0 {
				continue
			}
			for _, f := range grp.Flows {
				// Smooth the share to stabilize the heuristic.
				share[f] = 0.5*share[f] + 0.5*(x[f]/total)
			}
		}

		// Price update (Eqs. 9–11).
		for _, l := range touched {
			load[l] = 0
			minRes[l] = math.Inf(1)
		}
		for g := range p.Groups {
			grp := &p.Groups[g]
			agg := 0.0
			for _, f := range grp.Flows {
				agg += x[f]
			}
			for _, f := range grp.Flows {
				rate := x[f]
				// For aggregates the KKT marginal is of the total rate.
				at := max(agg, minPositive(rate))
				var marg float64
				if fast {
					marg = kern[gk[g]].Marginal(gw[g], at)
				} else {
					marg = grp.U.Marginal(at)
				}
				res := (marg - pathPrice[f]) / float64(len(paths[f]))
				for _, l := range paths[f] {
					load[l] += rate
					if res < minRes[l] {
						minRes[l] = res
					}
				}
			}
		}
		// The price maxima the convergence test reads are taken as the
		// prices are written: each live link's price before the update
		// is the previous iteration's.
		maxPrice, maxPriceDelta := 0.0, 0.0
		for _, l := range touched {
			old := price[l]
			// A failed link (capacity ≤ 0) holds its price: utilization
			// is undefined (0/0) and no price can admit traffic, and a
			// recovery warm-starts from the pre-fault dual. Not c > 0:
			// a NaN capacity takes the update.
			if c := p.Capacity[l]; !(c <= 0) {
				pres := old + minRes[l]
				u := load[l] / c
				pnew := pres - opts.Eta*(1-u)*old
				if pnew < 0 {
					pnew = 0
				}
				price[l] = opts.Beta*old + (1-opts.Beta)*pnew
			}
			maxPrice = max(maxPrice, price[l])
			maxPriceDelta = max(maxPriceDelta, math.Abs(price[l]-old))
		}
		for _, l := range idle {
			// No flows: drive the price to zero.
			old := price[l]
			price[l] *= opts.Beta
			maxPrice = max(maxPrice, price[l])
			maxPriceDelta = max(maxPriceDelta, math.Abs(price[l]-old))
		}

		// Convergence: relative change in all rates below Tol AND
		// prices stable relative to the current price scale. The
		// second condition matters for sharply curved utilities
		// (large α): legitimate prices can be many orders of
		// magnitude below the decaying residue left on idle links by
		// the β-averaging, and exiting on rate stability alone would
		// return duals dominated by that residue.
		if it > 0 {
			maxRel := 0.0
			for i := range x {
				den := max(math.Abs(prevX[i]), 1)
				maxRel = max(maxRel, math.Abs(x[i]-prevX[i])/den)
			}
			if maxRel < opts.Tol && (maxPrice == 0 || maxPriceDelta < 1e-6*maxPrice) {
				converged = true
				it++
				break
			}
		}
		copy(prevX, x)
	}
	// Complementary-slackness projection: an unsaturated link's true
	// dual is zero. The iteration drives such prices to zero
	// geometrically but exits when the primal stabilizes, which can
	// leave residue many orders of magnitude above the legitimate
	// price scale of sharply curved utilities.
	for _, l := range live {
		load[l] = 0
	}
	for i, pth := range paths {
		for _, l := range pth {
			load[l] += x[i]
		}
	}
	for _, l := range live {
		if load[l] < 0.995*p.Capacity[l] {
			price[l] = 0
		}
	}
	return Result{Rates: x, Prices: price, Iterations: it, Converged: converged}
}

// solveProbe, set only by tests, sees every Solve's workspace (its route),
// problem and result: the seam through which the certificate tests read
// each solve.
var solveProbe func(ws *SolveWorkspace, p *core.Problem, res Result)

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minPositive(v float64) float64 {
	if v > 1 {
		return v
	}
	return 1
}
