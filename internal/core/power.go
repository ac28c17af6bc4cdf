package core

import "math"

// Power computes x**y for one fixed exponent y and returns what
// math.Pow(x, y) returns, bit for bit. It performs the operations of
// Go's portable pow in the same order, with everything that depends on
// y alone — the special-case switch, Modf, the yf > 0.5 adjustment, the
// sign — done once, in NewPower. Two shortcuts keep the bits:
//
//   - integer part 0: pow's square-and-multiply loop does not run and
//     its final Ldexp(a, 0) is the identity, so the answer is
//     Exp(yf·Log(x)), or its reciprocal, directly;
//   - a small integer part: pow splits x = m·2^e (Frexp), multiplies
//     and squares m, and rescales once at the end (Ldexp). Scaling by a
//     power of two is exact and commutes with rounding while every
//     value involved is a normal number, so the same products taken on
//     x itself round to the same significands — provided x's binary
//     exponent is small enough that no intermediate leaves the normal
//     range, which is the [lo, hi] guard.
//
// Everything else (x ≤ 0, x = 1, ±Inf, NaN, x outside the guard, every
// y the switch special-cases, huge y) is answered by math.Pow itself.
// On s390x math.Pow is assembly and only that fallback is identical.
type Power struct {
	y, yf  float64 // the exponent; |y|'s fraction, moved into [-0.5, 0.5]
	yi     int64   // |y|'s integer part after that move
	lo, hi float64 // the x the shortcuts answer; empty when lo > hi
}

// maxDirectPower bounds the integer part the direct products take (at
// most 8 squarings); beyond it the guard interval is a sliver.
const maxDirectPower = 255

// NewPower prepares x**y for the given y.
func NewPower(y float64) Power {
	p := Power{y: y, lo: math.Inf(1), hi: math.Inf(-1)}
	yi, yf := math.Modf(math.Abs(y))
	if y == 0 || y == 1 || yf == 0.5 && yi == 0 || !(yi <= maxDirectPower) {
		return p // pow's y-only cases, NaN and ±Inf among them
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	p.yi, p.yf = int64(yi), yf
	// |log2 x| ≤ e keeps every intermediate's |log2| under (yi+½)·e+1 <
	// 1022: the squares x^(2^k) with 2^k ≤ yi, the partial products
	// times Exp(yf·Log(x)) ≤ 2^(e/2), and the final reciprocal.
	e := 1021 / (int(yi) + 1)
	p.lo, p.hi = math.Ldexp(1, -e), math.Ldexp(1, e)
	return p
}

// At returns x**y.
func (p *Power) At(x float64) float64 {
	if !(p.lo <= x && x <= p.hi) || x == 1 {
		return math.Pow(x, p.y)
	}
	a := 1.0
	if p.yf != 0 {
		a = math.Exp(p.yf * math.Log(x))
	}
	for i := p.yi; ; x *= x {
		if i&1 == 1 {
			a *= x
		}
		if i >>= 1; i == 0 {
			break // pow squares once more; that value is never used
		}
	}
	if p.y < 0 {
		a = 1 / a
	}
	return a
}

// AlphaKernel evaluates the α-fair marginal (w/x)^α and its inverse
// w·p^(−1/α) for one α, the weight passed per call: the bodies of
// AlphaFair.Marginal and AlphaFair.InverseMarginal with both powers
// prepared once. AlphaPlan builds one per distinct α per solve and
// keeps the weights (AlphaFair.EffectiveWeight) in a column.
type AlphaKernel struct {
	Alpha     float64
	isLog     bool
	marg, inv Power
}

// NewAlphaKernel prepares the kernel for AlphaFair utilities of one α.
func NewAlphaKernel(alpha float64) AlphaKernel {
	return AlphaKernel{
		Alpha: alpha,
		isLog: AlphaFair{Alpha: alpha}.isLog(),
		marg:  NewPower(alpha),
		inv:   NewPower(-1 / alpha),
	}
}

// Marginal returns AlphaFair{k.Alpha, w}.Marginal(x) for w > 0.
func (k *AlphaKernel) Marginal(w, x float64) float64 {
	x = max(x, minRate)
	if k.isLog {
		return w / x
	}
	return k.marg.At(w / x)
}

// InverseMarginal returns AlphaFair{k.Alpha, w}.InverseMarginal(p), w > 0.
func (k *AlphaKernel) InverseMarginal(w, p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if k.isLog {
		return w / p
	}
	return w * k.inv.At(p)
}

// MaxAlphaKernels bounds the distinct α one AlphaPlan holds; every
// committed workload has one.
const MaxAlphaKernels = 4

// AlphaPlan is a solver's devirtualised utility plan, built once per
// solve: entry i (a flow, or a group) evaluates Kernels[K[i]] at weight
// W[i] instead of calling through the Utility interface — no itab
// indirection, and everything math.Pow derives from the exponent alone
// prepared once instead of per entry per iteration. The kernels return
// AlphaFair's own results bit for bit (Power), so a solver's results
// are those of its interface path.
type AlphaPlan struct {
	W       []float64
	K       []uint8
	Kernels []AlphaKernel
}

// Build plans n entries, entry i under u(i), and reports whether every
// one is an AlphaFair over at most MaxAlphaKernels distinct α — the
// common case (ProportionalFair, the Table 1 α-fair rows, FCTMin). It
// returns false at the first entry outside the plan, leaving the
// columns unspecified; the solver then takes its interface path.
func (p *AlphaPlan) Build(n int, u func(i int) Utility) bool {
	if cap(p.W) < n {
		p.W, p.K = make([]float64, n), make([]uint8, n)
	}
	p.W, p.K, p.Kernels = p.W[:n], p.K[:n], p.Kernels[:0]
	for i := range n {
		af, ok := u(i).(AlphaFair)
		if !ok {
			return false
		}
		k := 0
		for k < len(p.Kernels) && p.Kernels[k].Alpha != af.Alpha {
			k++
		}
		if k == len(p.Kernels) {
			if k == MaxAlphaKernels {
				return false
			}
			p.Kernels = append(p.Kernels, NewAlphaKernel(af.Alpha))
		}
		p.W[i], p.K[i] = af.EffectiveWeight(), uint8(k)
	}
	return true
}
