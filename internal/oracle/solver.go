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
// iteration (§4.2; XWIStep, which also covers multipath groups): prices
// → weights (Eq. 7) → exact weighted max-min (Eq. 8, via progressive
// filling) → price update (Eqs. 9–11). The paper proves this dynamical
// system's unique fixed point solves the NUM problem; we iterate it to
// numerical convergence.
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
	// step holds what every route shares: preparation, plan, flow buffers.
	step  XWIStep
	prevX []float64
	price []float64 // per link
	prevP []float64 // per live link, its price before the last Update

	nw    newtonWork
	route int // the last Solve's route, for solveProbe
}

// Solve is Solve on the workspace's buffers. Result.Rates and
// Result.Prices alias them: they are valid until the next Solve on
// this workspace (passing the previous Prices back as InitPrices is
// fine). A problem of single-flow groups on non-empty paths under one α,
// every touched link finite and > 0, is solved exactly: a star in closed
// form, anything else by a dual Newton that must certify its result.
// Everything else, and whatever the Newton does not certify, runs the
// xWI iteration (XWIStep, the step fluid.XWI plays) from the caller's
// warm start, stopping on relative rate change and price stability.
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
		res = ws.iterate(p, opts)
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

// prepare does what every route needs: the step's columns (a group of
// two or more flows is one to it, numbered by its first flow, at equal
// shares), the max-min preparation and the plan (Prepare's result).
func (ws *SolveWorkspace) prepare(p *core.Problem) bool {
	paths, group, share := ws.step.Reset(len(p.Flows))
	for _, grp := range p.Groups {
		g := -1
		if len(grp.Flows) > 1 {
			g = grp.Flows[0]
		}
		for _, f := range grp.Flows {
			paths[f], group[f], share[f] = p.Flows[f].Links, g, 1/float64(len(grp.Flows))
		}
	}
	return ws.step.Prepare(p.Capacity, func(i int) core.Utility { return p.Groups[p.Flows[i].Group].U })
}

// exact reports whether the prepared p is one the exact solvers take:
// every group one flow on a non-empty path, one α, every touched link
// finite and > 0.
func (ws *SolveWorkspace) exact(p *core.Problem, fast bool) bool {
	if !fast || len(ws.step.plan.Kernels) != 1 {
		return false
	}
	for _, grp := range p.Groups {
		if len(grp.Flows) != 1 || len(p.Flows[grp.Flows[0]].Links) == 0 {
			return false
		}
	}
	for _, l := range ws.step.mm.used {
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
	nf, mm, plan := len(p.Flows), &ws.step.mm, &ws.step.plan
	// w[i]: flow i's weight while uncapped, 0 once x[i] is final (c_i until then).
	w, x := ws.step.weights, ws.step.x
	for i := range w {
		w[i], x[i] = plan.W[i], math.Inf(1)
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
				price[l] = max(0, k.Marginal(plan.W[i], x[i])-q)
				break
			}
		}
	}
	return Result{Rates: x, Prices: price, Iterations: 1, Converged: true}, true
}

// solveEta is the xWI underutilization gain η of Eq. 10 that Solve's
// iteration plays (Table 2: 5; xWI is largely insensitive to it).
const solveEta = 5

// iterate runs the xWI iteration from the caller's warm start, or cold
// from SeedPrices, until no rate moves by Tol relative to it (at least
// 1) with prices stable, or MaxIter; then projects the prices onto
// complementary slackness.
func (ws *SolveWorkspace) iterate(p *core.Problem, opts SolveOptions) Result {
	st, nl := &ws.step, len(p.Capacity)
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
	ws.price = growF(ws.price, nl)
	price := ws.price
	if opts.InitPrices != nil && len(opts.InitPrices) == nl {
		copy(price, opts.InitPrices)
	} else {
		// A dead first link scales against the largest capacity.
		SeedPrices(price, p.Capacity, st.paths, func(i int) core.Utility { return p.Groups[p.Flows[i].Group].U }, maxCap)
	}
	// Iterations visit only the live links (Idle): every other link holds
	// +0 throughout, so skipping it changes no bit of the result.
	idle := st.Idle(price)
	ws.prevX, ws.prevP = growF(ws.prevX, len(st.x)), growF(ws.prevP, len(st.live))
	x, prevX, prevP := st.x, ws.prevX, ws.prevP
	it := 0
	converged := false
	for ; it < opts.MaxIter; it++ {
		st.Rates(price, maxCap)
		for j, l := range st.live {
			prevP[j] = price[l]
		}
		st.Update(price, p.Capacity, solveEta, opts.Beta, idle)
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
			if maxRel < opts.Tol && ws.pricesStable(price) {
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
	// price scale of sharply curved utilities. The last Update left the
	// touched links' loads of x; idle links carry none.
	load := st.load
	for _, l := range idle {
		load[l] = 0
	}
	for _, l := range st.live {
		if load[l] < 0.995*p.Capacity[l] {
			price[l] = 0
		}
	}
	return Result{Rates: x, Prices: price, Iterations: it, Converged: converged}
}

// pricesStable reports whether the last Update moved no live link's price
// by 1e-6 of the largest price, or left every price at 0.
func (ws *SolveWorkspace) pricesStable(price []float64) bool {
	maxPrice, maxDelta := 0.0, 0.0
	for j, l := range ws.step.live {
		maxPrice, maxDelta = max(maxPrice, price[l]), max(maxDelta, math.Abs(price[l]-ws.prevP[j]))
	}
	return maxPrice == 0 || maxDelta < 1e-6*maxPrice
}

// solveProbe, set only by tests, sees every Solve's workspace (its route),
// problem and result: the seam through which the certificate tests read
// each solve.
var solveProbe func(ws *SolveWorkspace, p *core.Problem, res Result)
