package fluid

import (
	"math"

	"numfabric/internal/core"
	"numfabric/internal/oracle"
)

// Allocator computes a rate allocation for the active flows once per
// epoch. Implementations may keep state between calls (the XWI and DGD
// allocators carry per-link prices, which is what lets them model
// convergence dynamics over simulated time and warm-start across
// arrivals and departures). rates has one entry per flow, in flow
// order; implementations must fill every entry. Group members appear
// as ordinary entries of flows; allocators apply the group's utility
// to the members' total rate (see Group).
//
// Every allocator can also re-solve a subset of the active flows — a
// union of connected components of the link-sharing graph — against
// the full link capacities. The caller guarantees the subset is closed
// under link sharing: no active flow outside it crosses a link any
// subset flow crosses. Under that invariant the subset's optimal rates
// equal its rates in the full allocation, so AllocateSubset must
// compute exactly what Allocate would have given these flows for these
// links, while reading and writing only the links the subset crosses.
// Per-link state on untouched links (the XWI/DGD prices) is preserved,
// which is what lets the leap engine re-solve one connected component
// per event while every other component's warm-started state survives.
// An allocator with no per-link state (WaterFill) implements it as
// Allocate itself.
type Allocator interface {
	Allocate(net *Network, flows []*Flow, rates []float64)
	AllocateSubset(net *Network, flows []*Flow, rates []float64)
	// Reset discards internal state (prices); the next Allocate starts
	// cold, as after a topology change.
	Reset()
}

// SubsetAllocator is Allocator under the name the leap engine's
// contract uses: the subset path used to be an optional extension, and
// an allocator without one silently switched the engine to a
// whole-set mode. It is part of Allocator now, so "no subset path" is
// a compile error.
type SubsetAllocator = Allocator

// IterCounter is implemented by allocators that count their internal
// solver iterations — price updates (XWI), gradient steps (DGD),
// solver iterations (Oracle), water-fill rounds (WaterFill). The total
// accumulates across Reset (which clears prices, not telemetry). An
// allocator belongs to one goroutine, so the counter is a plain
// integer.
type IterCounter interface {
	SolveIters() int64
}

// BottleneckReporter is implemented by allocators that can identify,
// after a solve, each flow's binding link: the link on its path with
// the least residual capacity under the solved rates. For the exact
// max-min allocators this is the link whose saturation froze the flow
// during progressive filling (slack 0 at the bottleneck); for the
// price-dynamics allocators (XWI, DGD) it is the same min-slack
// criterion over their possibly-transient rates. Callers must pass the
// same link-closed flow set and rates the preceding solve produced
// (the leap engine calls it once a batch's solves are done, on the
// tracing path only). out receives one link id per flow, ties broken
// to the first link on the path; -1 for an empty path.
type BottleneckReporter interface {
	Bottlenecks(net *Network, flows []*Flow, rates []float64, out []int32)
}

// iterCount is the iteration tally embedded in each allocator.
type iterCount struct{ n int64 }

func (c *iterCount) add(d int64) { c.n += d }

// SolveIters returns the iterations accumulated so far.
func (c *iterCount) SolveIters() int64 { return c.n }

// scratch holds the per-call path/weight/group views shared by
// allocators.
type scratch struct {
	paths   [][]int
	weights []float64
	groups  []*Group
	// stamp is the last group-scan stamp collectGroups issued: monotone,
	// so a group marked by an earlier scan never reads as already seen.
	stamp int64

	// linkStamp/links collect the distinct links a call's flows cross,
	// in first-touch order — the sparse iteration domain of the subset
	// allocators. linkStamp is link-indexed but only touched entries
	// are ever written, so nothing network-wide needs zeroing.
	linkStamp []int
	links     []int
	linkRound int

	// bload is the per-link load accumulator behind bottlenecks; like
	// linkStamp it is link-indexed with only touched entries written (a
	// link's first touch in a call, told by its stamp, zeroes it).
	bload []float64

	// plan is the devirtualized utility plan of one call, one entry per
	// flow (see gatherAlpha).
	plan core.AlphaPlan
}

func (s *scratch) resize(n int) {
	if cap(s.paths) < n {
		s.paths = make([][]int, n)
		s.weights = make([]float64, n)
	}
	s.paths = s.paths[:n]
	s.weights = s.weights[:n]
}

// collectGroups gathers the distinct aggregates among flows, in
// first-member order, via the groups' scan stamps (no per-call
// allocation once warm).
func (s *scratch) collectGroups(flows []*Flow) []*Group {
	s.stamp++
	s.groups = s.groups[:0]
	for _, f := range flows {
		if g := f.Group; g != nil && g.stamp != s.stamp {
			g.stamp = s.stamp
			s.groups = append(s.groups, g)
		}
	}
	return s.groups
}

// gatherAlpha builds the call's α-fair plan over the flows' utilities
// (core.AlphaPlan.Build). When it returns true, allocator inner loops
// switch to a fast variant that evaluates the per-α kernel on the
// weight column, with rates identical to the interface path.
func (s *scratch) gatherAlpha(flows []*Flow) bool {
	return s.plan.Build(len(flows), func(i int) core.Utility { return flows[i].U })
}

// collectLinks gathers the distinct links crossed by flows, in
// first-touch order. It also leaves linkStamp marking exactly those
// links with the current linkRound, so callers can test membership.
func (s *scratch) collectLinks(nl int, flows []*Flow) []int {
	if cap(s.linkStamp) < nl {
		s.linkStamp = make([]int, nl)
	}
	st := s.linkStamp[:nl]
	s.linkRound++
	s.links = s.links[:0]
	for _, f := range flows {
		for _, l := range f.Links {
			if st[l] != s.linkRound {
				st[l] = s.linkRound
				s.links = append(s.links, l)
			}
		}
	}
	return s.links
}

// bottlenecks implements BottleneckReporter for every allocator: with
// the flow set link-closed, the subset's own rates are the entire load
// on every link it crosses, so per-link residual capacity — and with
// it each flow's min-slack binding link — is exact from the subset
// alone.
func (s *scratch) bottlenecks(net *Network, flows []*Flow, rates []float64, out []int32) {
	nl := net.Links()
	if cap(s.linkStamp) < nl {
		s.linkStamp = make([]int, nl)
	}
	if cap(s.bload) < nl {
		s.bload = make([]float64, nl)
	}
	st, load := s.linkStamp[:nl], s.bload[:nl]
	s.linkRound++
	round := s.linkRound
	for i, f := range flows {
		for _, l := range f.Links {
			if st[l] != round {
				st[l], load[l] = round, 0
			}
			load[l] += rates[i]
		}
	}
	for i, f := range flows {
		best, bestSlack := int32(-1), math.Inf(1)
		for _, l := range f.Links {
			if slack := net.Capacity[l] - load[l]; slack < bestSlack {
				bestSlack, best = slack, int32(l)
			}
		}
		out[i] = best
	}
}

// groupShareFloor keeps a group member's weight share above zero so an
// idle path keeps probing for newly available capacity (the same idea
// as transport.Aggregate's floor on the packet side).
const groupShareFloor = 0.05

// groupTotals recomputes each group's aggRate as the members' total in
// x and refreshes the members' smoothed throughput shares.
func groupTotals(groups []*Group, flows []*Flow, x []float64) {
	for _, g := range groups {
		g.aggRate = 0
	}
	for i, f := range flows {
		if f.Group != nil {
			f.Group.aggRate += x[i]
		}
	}
	for i, f := range flows {
		g := f.Group
		if g == nil || g.aggRate <= 0 {
			continue
		}
		// Smooth the share to stabilize the heuristic (as in
		// oracle.Solve).
		f.share = 0.5*f.share + 0.5*x[i]/g.aggRate
	}
}

// WaterFill is the instantaneous weighted max-min allocator: every
// epoch the rates jump straight to the exact water-filling allocation
// (Eq. 8) for the flows' static weights, via the oracle's progressive
// filling. It models a fabric whose transport converges instantly —
// the Swift layer with fixed weights — and is the fastest allocator.
//
// Groups split their weight across members by each member's share of
// the group's max-min throughput, iterated a few rounds so members
// through tighter bottlenecks shed weight onto less congested paths
// (per-member bottleneck awareness). Shares restart equal every call,
// so the allocation stays a pure function of the active flow set and
// the allocator remains stationary.
type WaterFill struct {
	iterCount
	s  scratch
	ws oracle.MaxMinWorkspace
}

// NewWaterFill returns a WaterFill allocator.
func NewWaterFill() *WaterFill { return &WaterFill{} }

// waterfillShareRounds is how many share-refinement water-fill rounds
// grouped allocations run; shares contract geometrically, so a few
// rounds reach the fixed split to well under a percent.
const waterfillShareRounds = 8

// Allocate computes the weighted max-min allocation.
func (w *WaterFill) Allocate(net *Network, flows []*Flow, rates []float64) {
	w.s.resize(len(flows))
	for i, f := range flows {
		w.s.paths[i] = f.Links
		w.s.weights[i] = f.Weight
		if w.s.weights[i] <= 0 {
			w.s.weights[i] = 1
		}
	}
	groups := w.s.collectGroups(flows)
	if len(groups) == 0 {
		w.ws.WeightedMaxMin(net.Capacity, w.s.paths, w.s.weights, rates)
		w.add(1)
		return
	}
	for _, f := range flows {
		if g := f.Group; g != nil {
			f.share = 1 / float64(len(g.Members))
		}
	}
	// The share rounds re-solve one flow set under changing weights.
	w.ws.Prepare(net.Capacity, w.s.paths)
	for r := 0; r < waterfillShareRounds; r++ {
		for i, f := range flows {
			g := f.Group
			if g == nil {
				continue
			}
			wgt := g.Weight
			if wgt <= 0 {
				wgt = 1
			}
			w.s.weights[i] = wgt * math.Max(f.share, groupShareFloor)
		}
		w.ws.Fill(w.s.weights, rates)
		groupTotals(groups, flows, rates)
	}
	w.add(waterfillShareRounds)
}

// AllocateSubset computes the weighted max-min allocation for a
// link-closed subset. WaterFill is stateless and its water-filling is
// already link-sparse (oracle.MaxMinWorkspace touches only the links
// the paths cross), so the subset path is Allocate itself: progressive
// filling over disjoint link sets is separable, so solving the subset
// alone yields bitwise the rates the full solve gives it.
func (w *WaterFill) AllocateSubset(net *Network, flows []*Flow, rates []float64) {
	w.Allocate(net, flows, rates)
}

// Bottlenecks reports each flow's binding link under the given rates.
func (w *WaterFill) Bottlenecks(net *Network, flows []*Flow, rates []float64, out []int32) {
	w.s.bottlenecks(net, flows, rates, out)
}

// Reset is a no-op: WaterFill is stateless.
func (w *WaterFill) Reset() {}

// Stationary reports that the allocation depends only on the active
// flow set, so the engine may cache it across unchanged epochs.
func (w *WaterFill) Stationary() bool { return true }

// XWI runs the paper's explicit weight-inference dynamics (§4.2) at
// fluid granularity: per epoch it performs IterPerEpoch rounds of
//
//	weights = U'⁻¹(path price)   (Eq. 7)
//	x       = weighted max-min    (Eq. 8, exact water-filling)
//	price  += residual − η(1−u)p  (Eqs. 9–11, β-averaged)
//
// holding per-link prices across epochs. With IterPerEpoch = 1 the
// simulated-time convergence mirrors the packet transport's (one price
// update per PriceUpdateInterval); larger values trade fidelity of the
// transient for faster convergence per epoch. The steady state is the
// NUM optimum (the paper's Theorem 1: the fixed point of these
// dynamics solves the NUM problem).
//
// Groups use the paper's §6.3 multipath heuristic, exactly as
// oracle.Solve does: each member's weight is the aggregate weight
// implied by its own path price, scaled by the member's smoothed share
// of the group's throughput, and residuals use the utility's marginal
// at the group's TOTAL rate. The shares persist across epochs on the
// member flows, so convergence warm-starts over arrivals and
// departures like the prices do.
type XWI struct {
	// Eta is the underutilization gain η (Eq. 10; default 5).
	Eta float64
	// Beta is the price-averaging factor β (Eq. 11; default 0.5).
	Beta float64
	// IterPerEpoch is how many price iterations run per epoch
	// (default 1).
	IterPerEpoch int
	// Tol, when positive, stops an Allocate call early once no rate
	// moved by more than Tol × the largest link capacity between
	// iterations — the fixed point, to working precision. The leap
	// engine sets it so a warm-started event converges in a handful
	// of iterations instead of always burning IterPerEpoch; zero (the
	// default) keeps the fixed iteration count, which the epoch
	// engine's one-iteration-per-epoch dynamics rely on.
	Tol float64

	iterCount
	price []float64
	s     scratch
	ws    oracle.MaxMinWorkspace
	x     []float64
	xprev []float64
	q     []float64 // per-flow path price of the current iteration
	load  []float64
	res   []float64
}

// NewXWI returns an XWI allocator with Table 2 defaults.
func NewXWI() *XWI { return &XWI{Eta: 5, Beta: 0.5, IterPerEpoch: 1} }

func (a *XWI) defaults() (eta, beta float64, iters int) {
	eta, beta, iters = a.Eta, a.Beta, a.IterPerEpoch
	if eta <= 0 {
		eta = 5
	}
	if beta <= 0 || beta >= 1 {
		beta = 0.5
	}
	if iters <= 0 {
		iters = 1
	}
	return eta, beta, iters
}

// Reset discards the link prices.
func (a *XWI) Reset() { a.price = nil }

// Bottlenecks reports each flow's binding link under the given rates.
func (a *XWI) Bottlenecks(net *Network, flows []*Flow, rates []float64, out []int32) {
	a.s.bottlenecks(net, flows, rates, out)
}

// Allocate advances the xWI dynamics by IterPerEpoch price updates and
// returns the latest water-filling allocation.
func (a *XWI) Allocate(net *Network, flows []*Flow, rates []float64) {
	a.allocate(net, flows, rates, false)
}

// AllocateSubset advances the dynamics for a link-closed subset,
// touching only the links the subset crosses: the prices of every
// other link — other components' warm-started state — are left
// untouched (in particular, idle links outside the subset do not
// decay, unlike a full Allocate).
func (a *XWI) AllocateSubset(net *Network, flows []*Flow, rates []float64) {
	a.allocate(net, flows, rates, true)
}

func (a *XWI) allocate(net *Network, flows []*Flow, rates []float64, subset bool) {
	eta, beta, iters := a.defaults()
	nf, nl := len(flows), net.Links()
	a.s.resize(nf)
	paths, weights := a.s.paths, a.s.weights
	for i, f := range flows {
		paths[i] = f.Links
	}

	maxCap := net.MaxCapacity()
	if maxCap <= 0 {
		// Every link dead (fault injection can zero whole components):
		// keep the weight window and tolerance scale finite; rates are
		// forced to zero by the max-min step regardless.
		maxCap = 1
	}
	wMin, wMax := 1e-3, 100*maxCap

	if len(a.price) != nl {
		a.price = initPrices(net, flows)
	}
	price := a.price

	if cap(a.load) < nl {
		a.load = make([]float64, nl)
		a.res = make([]float64, nl)
	}
	load, minRes := a.load[:nl], a.res[:nl]
	// The paths are fixed for the whole call and only the weights move
	// between iterations, so everything the max-min step derives from
	// the paths alone is prepared once, here.
	a.ws.Prepare(net.Capacity, paths)
	// touched is the links the flows cross (every touched link carries
	// at least one of them); links outside it are idle — in a full
	// Allocate their prices decay toward zero, in a subset call they
	// belong to other components and stay untouched.
	touched := a.ws.Links()
	groups := a.s.collectGroups(flows)
	fast := a.s.gatherAlpha(flows)
	afW, afK, alphaK := a.s.plan.W, a.s.plan.K, a.s.plan.Kernels
	if cap(a.q) < nf {
		a.q = make([]float64, nf)
	}
	q := a.q[:nf]
	if cap(a.x) < nf {
		a.x = make([]float64, nf)
	}
	x := a.x[:nf]
	if a.Tol > 0 {
		if cap(a.xprev) < nf {
			a.xprev = make([]float64, nf)
		}
	}
	done := 0
	for it := 0; it < iters; it++ {
		done = it + 1
		// Each flow's path price is summed once per iteration: the
		// weight (Eq. 7) and the residual (Eq. 9) both read it, and no
		// price is written in between.
		for i, p := range paths {
			sum := 0.0
			for _, l := range p {
				sum += price[l]
			}
			q[i] = sum
		}
		if fast {
			for i, f := range flows {
				w := alphaK[afK[i]].InverseMarginal(afW[i], q[i])
				if f.Group != nil {
					w *= math.Max(f.share, 1e-3)
				}
				weights[i] = clamp(w, wMin, wMax)
			}
		} else {
			for i, f := range flows {
				w := f.U.InverseMarginal(q[i])
				if f.Group != nil {
					// §6.3 heuristic: scale the aggregate weight by the
					// member's throughput share (floored so an unused path
					// keeps probing), as in oracle.Solve.
					w *= math.Max(f.share, 1e-3)
				}
				weights[i] = clamp(w, wMin, wMax)
			}
		}
		a.ws.Fill(weights, x)
		if len(groups) > 0 {
			groupTotals(groups, flows, x)
		}
		if a.Tol > 0 {
			xprev := a.xprev[:nf]
			maxMove := 0.0
			for i, xi := range x {
				if d := math.Abs(xi - xprev[i]); d > maxMove {
					maxMove = d
				}
				xprev[i] = xi
			}
			// it == 0 may start from a stale xprev; never trust the
			// first iteration's delta alone.
			if it > 0 && maxMove <= a.Tol*maxCap {
				break
			}
		}

		for _, l := range touched {
			load[l] = 0
			minRes[l] = math.Inf(1)
		}
		for i, f := range flows {
			rate := x[i]
			agg := rate
			if f.Group != nil {
				// The KKT marginal of an aggregate is of its total rate.
				agg = f.Group.aggRate
			}
			at := max(agg, rate, 1)
			var marg float64
			if fast {
				marg = alphaK[afK[i]].Marginal(afW[i], at)
			} else {
				marg = f.U.Marginal(at)
			}
			res := (marg - q[i]) / float64(len(paths[i]))
			for _, l := range paths[i] {
				load[l] += rate
				if res < minRes[l] {
					minRes[l] = res
				}
			}
		}
		for _, l := range touched {
			if net.Capacity[l] <= 0 {
				// Failed link: utilization is undefined (0/0) and no
				// price can admit traffic. Hold the price so a recovery
				// warm-starts from the pre-fault dual.
				continue
			}
			pres := price[l] + minRes[l]
			u := load[l] / net.Capacity[l]
			pnew := pres - eta*(1-u)*price[l]
			if pnew < 0 {
				pnew = 0
			}
			price[l] = beta*price[l] + (1-beta)*pnew
		}
		if !subset {
			// Idle links decay toward zero, as the dynamics prescribe
			// for links traffic has left.
			for l := 0; l < nl; l++ {
				if !a.ws.Touches(l) {
					price[l] *= beta
				}
			}
		}
	}
	a.add(int64(done))
	copy(rates, x)
}

// Oracle jumps straight to the NUM-optimal allocation every epoch by
// running the fluid xWI solver (oracle.Solve) to convergence,
// warm-starting link prices across epochs. It models an idealized
// transport with instantaneous convergence — the paper's Oracle — and
// is the fluid analog of schemes like RCP* that are engineered to
// realize the α-fair optimum directly. Groups are solved exactly, as
// multi-flow groups of the underlying core.Problem.
type Oracle struct {
	// MaxIter bounds the solver per epoch (default 2000; warm starts
	// keep the realized count far lower).
	MaxIter int

	iterCount
	// prices is the warm-start dual vector; init is the per-solve copy
	// of it AllocateSubset confines to the subset's links.
	prices []float64
	init   []float64
	s      scratch
	// p is the problem every solve rebuilds in place (core.Problem.Reset).
	p  core.Problem
	sw oracle.SolveWorkspace
}

// NewOracle returns an Oracle allocator.
func NewOracle() *Oracle { return &Oracle{} }

// Reset discards the warm-start prices.
func (o *Oracle) Reset() { o.prices = nil }

// Bottlenecks reports each flow's binding link under the given rates.
func (o *Oracle) Bottlenecks(net *Network, flows []*Flow, rates []float64, out []int32) {
	o.s.bottlenecks(net, flows, rates, out)
}

// Stationary reports that the optimum is a pure function of the
// active flow set.
func (o *Oracle) Stationary() bool { return true }

// Allocate solves the NUM problem for the current flow set.
func (o *Oracle) Allocate(net *Network, flows []*Flow, rates []float64) {
	res := o.solve(net, flows, o.prices)
	// res aliases the solve workspace; the warm-start duals are kept in
	// a vector of their own.
	o.prices = append(o.prices[:0], res.Prices...)
	copy(rates, res.Rates)
}

// AllocateSubset solves the NUM problem for a link-closed subset. The
// optimum decomposes across connected components, so the subset's
// solution equals its rates in the full optimum. The solve warm-starts
// from the duals of exactly the links the subset crosses (zero
// elsewhere) and scatters the solved duals back to those links alone,
// so its rates do not depend on what the rest of the vector holds and
// other components' duals survive for their own next solve. Without a
// dual vector for this network (no Prime, or after Reset) the first
// call cold-starts as Allocate does.
func (o *Oracle) AllocateSubset(net *Network, flows []*Flow, rates []float64) {
	nl := net.Links()
	if len(o.prices) != nl {
		o.Allocate(net, flows, rates)
		return
	}
	touched := o.s.collectLinks(nl, flows)
	if cap(o.init) < nl {
		o.init = make([]float64, nl)
	}
	init := o.init[:nl]
	clear(init)
	for _, l := range touched {
		init[l] = o.prices[l]
	}
	res := o.solve(net, flows, init)
	for _, l := range touched {
		o.prices[l] = res.Prices[l]
	}
	copy(rates, res.Rates)
}

// solve builds and solves the NUM problem for flows, warm-started from
// init. The result aliases o.sw (see oracle.SolveWorkspace.Solve).
func (o *Oracle) solve(net *Network, flows []*Flow, init []float64) oracle.Result {
	maxIter := o.MaxIter
	if maxIter <= 0 {
		maxIter = 2000
	}
	p := &o.p
	p.Reset(net.Capacity)
	for _, g := range o.s.collectGroups(flows) {
		g.gid = -1
	}
	for _, f := range flows {
		if g := f.Group; g != nil {
			if g.gid < 0 {
				g.gid = p.AddAggregate(g.U)
			}
			p.AddSubflow(g.gid, f.Links)
			continue
		}
		p.AddFlow(f.Links, f.U)
	}
	res := o.sw.Solve(p, oracle.SolveOptions{
		MaxIter: maxIter, Tol: 1e-7, InitPrices: init,
	})
	o.add(int64(res.Iterations))
	return res
}

// DGD runs the Low–Lapsley dual-gradient dynamics (§3, Eqs. 3–4) at
// fluid granularity, IterPerEpoch gradient steps per epoch:
//
//	x_i = U'⁻¹(Σ prices on path)
//	p_l = [p_l + γ·(load_l − c_l)]₊
//
// Because raw DGD rates can transiently overload links (the packet
// system absorbs this in queues; a fluid network has none), the
// returned allocation is projected onto the capacity region by
// uniformly scaling flows through overloaded links. The price dynamics
// themselves use the unprojected rates, exactly as in the algorithm.
//
// Groups follow the multipath dual: an aggregate's demand is
// U'⁻¹(cheapest member path price) — at the optimum all used paths
// share the minimum price — and the demand is steered onto the
// cheapest member path(s), with the split smoothed across iterations
// so price ties (the equilibrium condition) settle into a stable
// share instead of flapping.
type DGD struct {
	// Gamma is the step size γ of Eq. 4 per unit of the largest link
	// capacity, so a value behaves alike across link-speed scales
	// (default 0.2).
	Gamma float64
	// IterPerEpoch is how many gradient steps run per epoch
	// (default 1). DGD needs far more iterations than xWI — that
	// slowness is the paper's point.
	IterPerEpoch int
	// Tol, when positive, stops an Allocate call early once no rate
	// moved by more than Tol × the largest link capacity between
	// gradient steps — the same early-exit XWI offers, for the leap
	// engine's converge-per-event calls. Zero (the default) keeps the
	// fixed step count the epoch dynamics rely on.
	Tol float64

	iterCount
	price []float64
	x     []float64
	xprev []float64
	load  []float64
	q     []float64
	s     scratch
}

// NewDGD returns a DGD allocator with defaults.
func NewDGD() *DGD { return &DGD{Gamma: 0.2, IterPerEpoch: 1} }

// Reset discards the link prices.
func (a *DGD) Reset() { a.price = nil }

// Bottlenecks reports each flow's binding link under the given rates.
func (a *DGD) Bottlenecks(net *Network, flows []*Flow, rates []float64, out []int32) {
	a.s.bottlenecks(net, flows, rates, out)
}

// Allocate advances the DGD dynamics and returns the (feasibility-
// projected) rates.
func (a *DGD) Allocate(net *Network, flows []*Flow, rates []float64) {
	a.allocate(net, flows, rates, false)
}

// AllocateSubset advances the dynamics for a link-closed subset,
// updating prices only on the links the subset crosses; every other
// link's price — other components' warm-started state — is preserved
// (in a full Allocate, idle links' prices step toward zero).
func (a *DGD) AllocateSubset(net *Network, flows []*Flow, rates []float64) {
	a.allocate(net, flows, rates, true)
}

func (a *DGD) allocate(net *Network, flows []*Flow, rates []float64, subset bool) {
	gamma, iters := a.Gamma, a.IterPerEpoch
	if gamma <= 0 {
		gamma = 0.2
	}
	if iters <= 0 {
		iters = 1
	}
	nf, nl := len(flows), net.Links()
	maxCap := net.MaxCapacity()
	if maxCap <= 0 {
		// All-dead network: keep the step size and demand cap finite
		// (Marginal(0) may be +Inf); projectFeasible still forces every
		// rate on a zero-capacity link to exactly zero.
		maxCap = 1
	}
	if len(a.price) != nl {
		a.price = initPrices(net, flows)
	}
	price := a.price
	if cap(a.x) < nf {
		a.x = make([]float64, nf)
	}
	x := a.x[:nf]

	// Scale the step so prices move by O(γ × typical marginal) per
	// iteration.
	pScale := 1.0
	if nf > 0 {
		pScale = flows[0].U.Marginal(maxCap / float64(nf))
	}
	step := gamma * pScale / maxCap
	xCap := 10 * maxCap

	if cap(a.load) < nl {
		a.load = make([]float64, nl)
	}
	load := a.load[:nl]
	touched := a.s.collectLinks(nl, flows)
	if cap(a.q) < nf {
		a.q = make([]float64, nf)
	}
	q := a.q[:nf]
	groups := a.s.collectGroups(flows)
	fast := a.s.gatherAlpha(flows)
	afW, afK, alphaK := a.s.plan.W, a.s.plan.K, a.s.plan.Kernels
	if a.Tol > 0 {
		if cap(a.xprev) < nf {
			a.xprev = make([]float64, nf)
		}
	}
	done := 0
	for it := 0; it < iters; it++ {
		done = it + 1
		if fast {
			for i, f := range flows {
				sum := 0.0
				for _, l := range f.Links {
					sum += price[l]
				}
				q[i] = sum
				if f.Group == nil {
					x[i] = math.Min(alphaK[afK[i]].InverseMarginal(afW[i], sum), xCap)
				}
			}
		} else {
			for i, f := range flows {
				sum := 0.0
				for _, l := range f.Links {
					sum += price[l]
				}
				q[i] = sum
				if f.Group == nil {
					x[i] = math.Min(f.U.InverseMarginal(sum), xCap)
				}
			}
		}
		if len(groups) > 0 {
			a.groupDemands(groups, flows, q, x, xCap)
		}
		for _, l := range touched {
			load[l] = 0
		}
		for i, f := range flows {
			for _, l := range f.Links {
				load[l] += x[i]
			}
		}
		for _, l := range touched {
			price[l] += step * (load[l] - net.Capacity[l])
			if price[l] < 0 {
				price[l] = 0
			}
		}
		if !subset {
			// Idle links carry no load: their prices step toward zero.
			st, round := a.s.linkStamp, a.s.linkRound
			for l := 0; l < nl; l++ {
				if st[l] != round {
					price[l] -= step * net.Capacity[l]
					if price[l] < 0 {
						price[l] = 0
					}
				}
			}
		}
		if a.Tol > 0 {
			xprev := a.xprev[:nf]
			maxMove := 0.0
			for i, xi := range x {
				if d := math.Abs(xi - xprev[i]); d > maxMove {
					maxMove = d
				}
				xprev[i] = xi
			}
			// it == 0 may compare against a stale xprev; never trust
			// the first step's delta alone.
			if it > 0 && maxMove <= a.Tol*maxCap {
				break
			}
		}
	}
	a.add(int64(done))
	copy(rates, x)
	// load still holds the final iteration's per-link loads of x,
	// which rates now equals — reuse it for the projection.
	projectFeasible(net, flows, rates, load)
}

// groupDemands fills x for group members: each group demands
// U'⁻¹(cheapest member path price) in total, steered onto the member
// path(s) at that minimum price. Because at the multipath optimum all
// used paths tie at the minimum price (a degenerate face of the dual),
// the steering carries heavy inertia: shares move a few percent per
// iteration toward the current cheapest set, so price ties settle into
// a stable time-average split instead of flapping the whole demand
// between members. Shares persist on the flows and are renormalized so
// every group's shares sum to one.
func (a *DGD) groupDemands(groups []*Group, flows []*Flow, q, x []float64, xCap float64) {
	const inertia = 0.95
	for _, g := range groups {
		g.qmin = math.Inf(1)
		g.scan = 0 // cheapest-member count, then share sum
		g.aggRate = 0
	}
	for i, f := range flows {
		if g := f.Group; g != nil && q[i] < g.qmin {
			g.qmin = q[i]
		}
	}
	cheap := func(i int, f *Flow) bool {
		qmin := f.Group.qmin
		return q[i] <= qmin*(1+1e-9)+1e-12
	}
	for i, f := range flows {
		if f.Group != nil && cheap(i, f) {
			f.Group.scan++
		}
	}
	for i, f := range flows {
		g := f.Group
		if g == nil {
			continue
		}
		target := 0.0
		if cheap(i, f) {
			target = 1 / g.scan
		}
		f.share = inertia*f.share + (1-inertia)*target
	}
	for _, g := range groups {
		g.scan = 0
	}
	for _, f := range flows {
		if f.Group != nil {
			f.Group.scan += f.share
		}
	}
	for i, f := range flows {
		g := f.Group
		if g == nil {
			continue
		}
		y := math.Min(f.U.InverseMarginal(g.qmin), xCap)
		if g.scan > 0 {
			x[i] = y * f.share / g.scan
		} else {
			x[i] = y / float64(len(g.Members))
		}
		g.aggRate += x[i]
	}
}

// projectFeasible scales rates down so no link exceeds capacity: each
// flow is multiplied by the smallest cap/load ratio along its path.
// load must hold the per-link loads induced by rates.
func projectFeasible(net *Network, flows []*Flow, rates []float64, load []float64) {
	for i, f := range flows {
		scale := 1.0
		for _, l := range f.Links {
			if load[l] > net.Capacity[l] {
				if s := net.Capacity[l] / load[l]; s < scale {
					scale = s
				}
			}
		}
		rates[i] *= scale
	}
}

// initPrices seeds per-link prices the way oracle.Solve does: inverse
// flow counts, scaled so a representative flow's weight lands near its
// fair share.
func initPrices(net *Network, flows []*Flow) []float64 {
	nl := net.Links()
	price := make([]float64, nl)
	cnt := make([]int, nl)
	for _, f := range flows {
		for _, l := range f.Links {
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
	if len(flows) > 0 {
		f0 := flows[0]
		l0 := f0.Links[0]
		capl := net.Capacity[l0]
		if capl <= 0 {
			// Dead representative link (fault injection): scale against
			// the largest live capacity instead, so prices still land
			// near a realistic marginal. All-dead nets keep capl == 0
			// and skip scaling below — every rate is zero regardless.
			capl = net.MaxCapacity()
		}
		fair := capl / math.Max(1, float64(cnt[l0]))
		target := f0.U.Marginal(fair)
		sum := 0.0
		for _, l := range f0.Links {
			sum += price[l]
		}
		// A dead first link makes fair == 0 and Marginal(0) can be
		// +Inf; an infinite scale would poison every price.
		if sum > 0 && target > 0 && !math.IsInf(target, 1) {
			scale := target / sum
			for l := range price {
				price[l] *= scale
			}
		}
	}
	return price
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
