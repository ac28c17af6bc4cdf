package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// BWPoint is a vertex of a piecewise-linear bandwidth function.
type BWPoint struct {
	FairShare float64 // dimensionless fair share f
	Bandwidth float64 // allocated bandwidth B(f), bits/second
}

// BandwidthFunction is a piecewise-linear, non-decreasing bandwidth
// function B(f) in the style of Google's Bandwidth Enforcer (BwE,
// §2 "Bandwidth Functions"): it maps a dimensionless fair share f to
// the bandwidth the flow should receive. Beyond the last vertex, B
// continues with the slope of the final segment.
//
// For the NUM encoding the paper requires strictly increasing B; flat
// segments are therefore tilted by a tiny slope when the function is
// built (see NewBandwidthFunction).
type BandwidthFunction struct {
	pts []BWPoint
}

// flatSlope is the slope (bits/second per unit fair share) substituted
// for exactly-flat segments so B stays strictly increasing and
// invertible, as §2 assumes "for technical convenience".
const flatSlope = 1.0

// NewBandwidthFunction builds a bandwidth function from vertices. The
// vertices must be finite, with strictly increasing fair share and
// non-decreasing bandwidth; the first vertex must be (0, 0) or it is
// prepended.
func NewBandwidthFunction(pts []BWPoint) (*BandwidthFunction, error) {
	if len(pts) == 0 {
		return nil, errors.New("core: bandwidth function needs at least one vertex")
	}
	for i, p := range pts {
		if math.IsNaN(p.FairShare) || math.IsInf(p.FairShare, 0) || math.IsNaN(p.Bandwidth) || math.IsInf(p.Bandwidth, 0) {
			return nil, fmt.Errorf("core: vertex %d (%v, %v) is not finite", i, p.FairShare, p.Bandwidth)
		}
	}
	cp := append([]BWPoint(nil), pts...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].FairShare < cp[j].FairShare })
	if cp[0].FairShare != 0 {
		if cp[0].FairShare < 0 {
			return nil, errors.New("core: negative fair share")
		}
		cp = append([]BWPoint{{0, 0}}, cp...)
	}
	if cp[0].Bandwidth != 0 {
		return nil, errors.New("core: B(0) must be 0")
	}
	for i := 1; i < len(cp); i++ {
		if cp[i].FairShare <= cp[i-1].FairShare {
			return nil, fmt.Errorf("core: fair shares must be strictly increasing (vertex %d)", i)
		}
		if cp[i].Bandwidth < cp[i-1].Bandwidth {
			return nil, fmt.Errorf("core: bandwidth must be non-decreasing (vertex %d)", i)
		}
		// Tilt flat segments so the function is invertible.
		if cp[i].Bandwidth == cp[i-1].Bandwidth {
			cp[i].Bandwidth = cp[i-1].Bandwidth + flatSlope*(cp[i].FairShare-cp[i-1].FairShare)
		}
	}
	return &BandwidthFunction{pts: cp}, nil
}

// MustBandwidthFunction is NewBandwidthFunction but panics on error;
// for static tables in tests and examples.
func MustBandwidthFunction(pts []BWPoint) *BandwidthFunction {
	b, err := NewBandwidthFunction(pts)
	if err != nil {
		panic(err)
	}
	return b
}

// Eval returns B(f). Beyond the last vertex the final segment's slope
// is extrapolated (with at least flatSlope so B keeps increasing).
func (b *BandwidthFunction) Eval(f float64) float64 {
	if f <= 0 {
		return 0
	}
	pts := b.pts
	n := len(pts)
	if f >= pts[n-1].FairShare {
		slope := b.lastSlope()
		return pts[n-1].Bandwidth + slope*(f-pts[n-1].FairShare)
	}
	i := sort.Search(n, func(i int) bool { return pts[i].FairShare >= f })
	// pts[i-1].FairShare < f <= pts[i].FairShare, i >= 1.
	p0, p1 := pts[i-1], pts[i]
	t := (f - p0.FairShare) / (p1.FairShare - p0.FairShare)
	return p0.Bandwidth + t*(p1.Bandwidth-p0.Bandwidth)
}

// Inverse returns F(x) = B⁻¹(x): the fair share at which the flow is
// allocated bandwidth x.
func (b *BandwidthFunction) Inverse(x float64) float64 {
	if x <= 0 {
		return 0
	}
	pts := b.pts
	n := len(pts)
	if x >= pts[n-1].Bandwidth {
		slope := b.lastSlope()
		return pts[n-1].FairShare + (x-pts[n-1].Bandwidth)/slope
	}
	i := sort.Search(n, func(i int) bool { return pts[i].Bandwidth >= x })
	p0, p1 := pts[i-1], pts[i]
	t := (x - p0.Bandwidth) / (p1.Bandwidth - p0.Bandwidth)
	return p0.FairShare + t*(p1.FairShare-p0.FairShare)
}

func (b *BandwidthFunction) lastSlope() float64 {
	pts := b.pts
	n := len(pts)
	slope := flatSlope
	if n >= 2 {
		s := (pts[n-1].Bandwidth - pts[n-2].Bandwidth) / (pts[n-1].FairShare - pts[n-2].FairShare)
		if s > slope {
			slope = s
		}
	}
	return slope
}

// MaxBandwidth returns the bandwidth at the last vertex (the nominal
// cap; Eval extrapolates beyond it only with the final slope).
func (b *BandwidthFunction) MaxBandwidth() float64 { return b.pts[len(b.pts)-1].Bandwidth }

// Points returns a copy of the (normalized) vertices.
func (b *BandwidthFunction) Points() []BWPoint { return append([]BWPoint(nil), b.pts...) }

// BWUtility is the utility encoding of a bandwidth function derived in
// §2 (Table 1, last row):
//
//	U(x) = ∫₀ˣ F(τ)^(-α) dτ,   U'(x) = F(x)^(-α)
//
// where F = B⁻¹ is the inverse bandwidth function and α a positive
// constant. For large α the NUM solution approaches the BwE
// water-filling allocation; the paper finds α ≈ 5 is sufficient.
type BWUtility struct {
	B     *BandwidthFunction
	Alpha float64
}

// NewBWUtility wraps a bandwidth function as a NUM utility. alpha <= 0
// selects the paper's default of 5.
func NewBWUtility(b *BandwidthFunction, alpha float64) BWUtility {
	if alpha <= 0 {
		alpha = 5
	}
	return BWUtility{B: b, Alpha: alpha}
}

// Value returns U(x), integrating F^(-α) exactly over the piecewise
// segments of B (on each segment F is linear in x, so the integrand is
// a power function with a closed-form antiderivative).
func (u BWUtility) Value(x float64) float64 {
	if x <= 0 {
		return 0
	}
	total := 0.0
	pts := u.B.pts
	prevX, prevF := 0.0, 0.0
	for i := 1; i <= len(pts); i++ {
		var segEndX, segEndF float64
		if i < len(pts) {
			segEndX, segEndF = pts[i].Bandwidth, pts[i].FairShare
		} else {
			segEndX = math.Max(x, pts[len(pts)-1].Bandwidth)
			segEndF = u.B.Inverse(segEndX)
		}
		hi := math.Min(x, segEndX)
		if hi > prevX {
			total += integratePowerSegment(prevX, prevF, segEndX, segEndF, hi, u.Alpha)
		}
		if x <= segEndX {
			break
		}
		prevX, prevF = segEndX, segEndF
	}
	return total
}

// integratePowerSegment integrates F(τ)^(-α) dτ from x0 to hi where F
// is linear from (x0, f0) to (x1, f1).
func integratePowerSegment(x0, f0, x1, f1, hi, alpha float64) float64 {
	slope := (f1 - f0) / (x1 - x0) // dF/dx, > 0
	fa := f0
	fb := f0 + slope*(hi-x0)
	if fa <= 0 {
		// Near the origin F → 0 and F^(-α) diverges for α >= 1; clamp
		// the lower limit to a tiny share. The divergence is exactly
		// why NUM so strongly favors flows with small fair share.
		fa = math.Min(fb, 1e-9)
	}
	if math.Abs(alpha-1) < 1e-12 {
		return (math.Log(fb) - math.Log(fa)) / slope
	}
	return (math.Pow(fb, 1-alpha) - math.Pow(fa, 1-alpha)) / ((1 - alpha) * slope)
}

// Marginal returns U'(x) = F(x)^(-α).
func (u BWUtility) Marginal(x float64) float64 {
	f := u.B.Inverse(math.Max(x, minRate))
	if f <= 0 {
		return math.Inf(1)
	}
	return math.Pow(f, -u.Alpha)
}

// InverseMarginal returns x with F(x)^(-α) = p, i.e. x = B(p^(-1/α)).
func (u BWUtility) InverseMarginal(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	f := math.Pow(p, -1/u.Alpha)
	return u.B.Eval(f)
}
