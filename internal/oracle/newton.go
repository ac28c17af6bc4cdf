package oracle

import (
	"math"
	"slices"

	"numfabric/internal/core"
)

// The dual Newton takes at most maxNewtonClasses classes (its Hessian is
// dense) and maxNewtonSteps steps, and stops at a relative KKT residual
// of newtonKKT.
const (
	maxNewtonClasses = 64
	maxNewtonSteps   = 30
	newtonKKT        = 1e-13
)

// newtonWork is the dual Newton's state. Per class (a max-min class,
// less any whose flow list another has at a smaller capacity): its
// representative link, capacity, load, price, gradient, direction and
// trial price; the dense Hessian and the system [H_FF | −g_F] the
// direction is solved on; per flow, its classes (CSR); per max-min slot,
// its class (^r: merged into class r).
type newtonWork struct {
	rep, fstart, fcls, free, cls     []int
	c, load, pi, g, d, trial, h, aug []float64
}

func (nw *newtonWork) classes(i int) []int { return nw.fcls[nw.fstart[i]:nw.fstart[i+1]] }

// newton solves the prepared exact p by projected Newton on the NUM dual
// over link classes and reports whether it certified the result. Flow i
// takes x_i = w_i·q_i^(−1/α) = (q_i/v_i)^(−1/α) at path price q_i, v_i =
// w_i^α; the dual
//
//	D(π) = Σ_r π_r C_r + Σ_i α/(1−α)·x_i q_i   (v_i(log(v_i/q_i) − 1) at α = 1)
//
// has gradient C_r − load_r and Hessian Σ_i x_i/(α q_i)·a_i a_iᵀ. It
// starts from the caller's prices summed per class, steps on the free
// classes and sends the rest (near 0 and pushed down) to 0 on a diagonal
// step, backtracks with Armijo on the projected path (within the dual's
// rounding), and stops at a relative KKT residual ≤ newtonKKT.
func (ws *SolveWorkspace) newton(p *core.Problem, opts SolveOptions) (Result, bool) {
	nf, mm, nw, k := len(p.Flows), &ws.step.mm, &ws.nw, &ws.step.plan.Kernels[0]
	if len(mm.reps) > maxNewtonClasses {
		return Result{}, false
	}
	flowsOn := func(l int) []int32 { s := mm.slot[l]; return mm.linkFlows[mm.start[s]:mm.start[s+1]] }
	nw.cls = growI(nw.cls, len(mm.used))
	nw.rep, nw.c = nw.rep[:0], nw.c[:0]
	for _, l := range mm.reps {
		r, s := 0, mm.slot[l]
		for r < len(nw.rep) && !slices.Equal(flowsOn(l), flowsOn(nw.rep[r])) {
			r++
		}
		switch c := p.Capacity[l]; {
		case r == len(nw.rep):
			nw.rep, nw.c, nw.cls[s] = append(nw.rep, l), append(nw.c, c), r
		case c < nw.c[r]:
			nw.cls[mm.slot[nw.rep[r]]], nw.cls[s], nw.rep[r], nw.c[r] = ^r, r, l, c
		default:
			nw.cls[s] = ^r
		}
	}
	nc := len(nw.rep)
	for _, b := range []*[]float64{&nw.load, &nw.pi, &nw.g, &nw.d, &nw.trial} {
		*b = growF(*b, nc)
	}
	nw.h, nw.aug, nw.free = growF(nw.h, nc*nc), growF(nw.aug, nc*(nc+1)), growI(nw.free, nc)
	nw.fstart, nw.fcls = growI(nw.fstart, nf+1), nw.fcls[:0]
	for i, rp := range mm.rpaths {
		nw.fstart[i] = len(nw.fcls)
		for _, l := range rp {
			if r := nw.cls[mm.slot[l]]; r >= 0 {
				nw.fcls = append(nw.fcls, r)
			}
		}
	}
	nw.fstart[nf] = len(nw.fcls)
	// v_i: FCTMin's weights span 2^-1022 to MaxFloat64, their α-th powers
	// a range every quotient below fits in.
	v, x, q, pi := ws.step.weights, ws.step.x, ws.step.pathPrice, nw.pi
	for i := range p.Flows {
		if v[i] = k.Marginal(ws.step.plan.W[i], 1); !(v[i] > 0) || math.IsInf(v[i], 1) {
			return Result{}, false
		}
	}
	clear(pi)
	if len(opts.InitPrices) == len(p.Capacity) {
		for s, l := range mm.used {
			if r, init := nw.cls[mm.class[s]], opts.InitPrices[l]; init > 0 && !math.IsInf(init, 1) {
				pi[max(r, ^r)] += init
			}
		}
	}
	// Lift a path price below U′ of the least capacity on the path (which
	// bounds the optimum's) — of the least fair share if it is 0 — by
	// spreading the difference over the path's classes.
	ws.dualAt(pi)
	for i := range p.Flows {
		cls, least, fair := nw.classes(i), math.Inf(1), math.Inf(1)
		for _, r := range cls {
			least, fair = min(least, nw.c[r]), min(fair, nw.c[r]/float64(len(flowsOn(nw.rep[r]))))
		}
		if q[i] > 0 {
			fair = least
		}
		if u := k.Marginal(ws.step.plan.W[i], fair); q[i] < u {
			for _, r := range cls {
				pi[r] += (u - q[i]) / float64(len(cls))
			}
		}
	}
	dual := ws.dualAt(pi)
	for step := 0; ; step++ {
		ws.loads()
		pmax, res := slices.Max(pi), 0.0
		for r, c := range nw.c {
			nw.g[r] = c - nw.load[r]
			res = max(res, -nw.g[r]/c, pi[r]/pmax*nw.g[r]/c)
		}
		if res <= newtonKKT {
			return ws.newtonResult(p, max(step, 1))
		}
		if step == maxNewtonSteps || math.IsNaN(res) {
			return Result{}, false
		}
		clear(nw.h)
		for i := range x {
			hi := x[i] / (k.Alpha * q[i])
			for _, r := range nw.classes(i) {
				for _, s := range nw.classes(i) {
					nw.h[r*nc+s] += hi
				}
			}
		}
		free := nw.free[:0]
		for r, g := range nw.g {
			if hrr := nw.h[r*nc+r]; g > 0 && pi[r]*hrr <= g {
				nw.d[r] = -g / hrr
			} else {
				free = append(free, r)
			}
		}
		if !nw.direction(free, nc) {
			return Result{}, false
		}
		accepted := false
		for t := 1.0; t > 1e-12 && !accepted; t /= 2 {
			slope := 0.0
			for r := range pi {
				nw.trial[r] = max(0, pi[r]+t*nw.d[r])
				slope += nw.g[r] * (nw.trial[r] - pi[r])
			}
			next := ws.dualAt(nw.trial)
			if accepted = next[0] <= dual[0]+1e-4*slope+0x1p-46*max(next[1], dual[1]); accepted {
				copy(pi, nw.trial)
				dual = next
			}
		}
		if !accepted {
			return Result{}, false
		}
	}
}

// loads sets every class's load from the rates, summed in flow order as
// cert.LinkLoads sums a link's.
func (ws *SolveWorkspace) loads() {
	clear(ws.nw.load)
	for i, xi := range ws.step.x {
		for _, r := range ws.nw.classes(i) {
			ws.nw.load[r] += xi
		}
	}
}

// dualAt sets the path prices at class prices pi and, if every one is
// positive, the rates they imply, and returns the dual D and the sum of
// its terms' magnitudes; D is +Inf where a path price is not positive.
func (ws *SolveWorkspace) dualAt(pi []float64) [2]float64 {
	k, q, bad := &ws.step.plan.Kernels[0], ws.step.pathPrice, false
	for i := range q {
		q[i] = 0
		for _, r := range ws.nw.classes(i) {
			q[i] += pi[r]
		}
		bad = bad || !(q[i] > 0)
	}
	d := 0.0
	for r, c := range ws.nw.c {
		d += pi[r] * c
	}
	noise := d
	for i, v := range ws.step.weights {
		ws.step.x[i] = k.InverseMarginal(1, q[i]/v)
		t := k.Alpha / (1 - k.Alpha) * ws.step.x[i] * q[i]
		if math.Abs(k.Alpha-1) < 1e-12 {
			t = v * (math.Log(v/q[i]) - 1)
		}
		d, noise = d+t, noise+math.Abs(t)
	}
	if bad || math.IsNaN(d+noise) {
		return [2]float64{math.Inf(1), 0}
	}
	return [2]float64{d, noise}
}

// direction solves H_FF d_F = −g_F over the free classes by Gaussian
// elimination (H is symmetric positive semidefinite: no pivoting) and
// reports success. Classes whose flow lists are linearly dependent make
// H singular, a pivot at or below 1e-10 of its diagonal: the diagonal is
// then regularised, by 1e-10 of itself and 1e3× more per retry.
func (nw *newtonWork) direction(free []int, nc int) bool {
	n, a := len(free), nw.aug
	m := n + 1 // a is [H_FF | −g_F], row-major
	for reg := 0.0; reg <= 1e-2; reg = max(1e-10, reg*1e3) {
		ok := true
		for i, r := range free {
			for j, s := range free {
				a[i*m+j] = nw.h[r*nc+s]
			}
			a[i*m+i], a[i*m+n] = a[i*m+i]*(1+reg), -nw.g[r]
		}
		for k := 0; k < n && ok; k++ {
			if ok = a[k*m+k] > 1e-10*nw.h[free[k]*nc+free[k]]; ok {
				for i := k + 1; i < n; i++ {
					f := a[i*m+k] / a[k*m+k]
					for j := k; j <= n; j++ {
						a[i*m+j] -= f * a[k*m+j]
					}
				}
			}
		}
		for i := n - 1; i >= 0 && ok; i-- {
			v := a[i*m+n]
			for j := i + 1; j < n; j++ {
				v -= a[i*m+j] * nw.d[free[j]]
			}
			nw.d[free[i]] = v / a[i*m+i]
		}
		if ok {
			return true
		}
	}
	return false
}

// newtonResult scales each flow by its worst overloaded class's
// capacity/load (less 2^-50) and returns the rates and prices, unless a
// load is still above its capacity or a flow's U′, as its utility
// computes it, is not its path price to 1e-12 (≥ it at rate 0): below the
// utilities' 1 b/s floor, or where math.Pow loses a subnormal W/x.
func (ws *SolveWorkspace) newtonResult(p *core.Problem, steps int) (Result, bool) {
	nw, x, k := &ws.nw, ws.step.x, &ws.step.plan.Kernels[0]
	for i := range p.Flows {
		s := 1.0
		for _, r := range nw.classes(i) {
			if nw.load[r] > nw.c[r] {
				s = min(s, nw.c[r]/nw.load[r]*(1-0x1p-50))
			}
		}
		x[i] *= s
		if u, q := k.Marginal(ws.step.plan.W[i], x[i]), ws.step.pathPrice[i]; u > q && x[i] == 0 || math.Abs(u-q) > 1e-12*max(u, q) && x[i] > 0 {
			return Result{}, false
		}
	}
	ws.loads()
	for r, y := range nw.load {
		if y > nw.c[r] {
			return Result{}, false
		}
	}
	ws.price = growF(ws.price, len(p.Capacity))
	clear(ws.price)
	for r, l := range nw.rep {
		ws.price[l] = nw.pi[r]
	}
	return Result{Rates: x, Prices: ws.price, Iterations: steps, Converged: true}, true
}
