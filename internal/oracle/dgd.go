package oracle

import (
	"math"

	"numfabric/internal/core"
)

// DGDOptions tunes the fluid Dual Gradient Descent solver.
type DGDOptions struct {
	// Gamma is the step size γ of Eq. 4, expressed per unit of the
	// largest link capacity (the effective step is Gamma/maxCapacity,
	// so a given value behaves similarly across link-speed scales).
	// Default 0.2.
	Gamma float64
	// MaxIter bounds the iterations (default 200000 — DGD is slow;
	// that slowness is the paper's point).
	MaxIter int
	// Tol is the relative rate-change convergence tolerance
	// (default 1e-9).
	Tol float64
}

func (o DGDOptions) withDefaults() DGDOptions {
	if o.Gamma <= 0 {
		o.Gamma = 0.2
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// SolveDGD computes the NUM-optimal allocation with the Low–Lapsley
// dual gradient descent algorithm (§3, Eqs. 3–4):
//
//	x_i(t)   = U'⁻¹(Σ_{l∈L(i)} p_l(t))
//	p_l(t+1) = [p_l(t) + γ(Σ_{i∈S(l)} x_i(t) − c_l)]₊
//
// It exists both as an independent cross-check on Solve and as the
// iteration-count baseline that motivates xWI. Multipath groups are
// not supported (the classic algorithm is single-path); flows must be
// in singleton groups.
func SolveDGD(p *core.Problem, opts DGDOptions) Result {
	opts = opts.withDefaults()
	nf, nl := len(p.Flows), len(p.Capacity)
	if nf == 0 {
		return Result{Prices: make([]float64, nl), Converged: true}
	}
	maxCap := 0.0
	for _, c := range p.Capacity {
		maxCap = math.Max(maxCap, c)
	}
	// The dual gradient is measured in rate units (bits/s); scale the
	// step so prices move by O(Gamma × typical marginal) per iteration.
	u0 := p.Groups[p.Flows[0].Group].U
	pScale := u0.Marginal(maxCap / float64(max(1, nf)))
	step := opts.Gamma * pScale / maxCap

	price := make([]float64, nl)
	for l := range price {
		price[l] = pScale / 2
	}
	x := make([]float64, nf)
	prevX := make([]float64, nf)
	load := make([]float64, nl)
	xCap := 10 * maxCap

	it := 0
	converged := false
	for ; it < opts.MaxIter; it++ {
		clear(load)
		for i, f := range p.Flows {
			sum := 0.0
			for _, l := range f.Links {
				sum += price[l]
			}
			u := p.Groups[f.Group].U
			x[i] = math.Min(u.InverseMarginal(sum), xCap)
			for _, l := range f.Links {
				load[l] += x[i]
			}
		}
		for l := 0; l < nl; l++ {
			price[l] += step * (load[l] - p.Capacity[l])
			if price[l] < 0 {
				price[l] = 0
			}
		}
		if it > 0 {
			maxRel := 0.0
			for i := range x {
				den := math.Max(math.Abs(prevX[i]), 1)
				maxRel = math.Max(maxRel, math.Abs(x[i]-prevX[i])/den)
			}
			if maxRel < opts.Tol {
				converged = true
				it++
				break
			}
		}
		copy(prevX, x)
	}
	return Result{Rates: x, Prices: price, Iterations: it, Converged: converged}
}
