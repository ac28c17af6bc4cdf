package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// powerExponents covers every branch of NewPower: pow's y-only special
// cases, integer part 0, fractions either side of the yf > 0.5
// adjustment, small integers with and without a fraction, the edge of
// maxDirectPower (255.75 adjusts to 256) and the exponents past it.
var powerExponents = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 0.125, -0.125, 8, -8,
	0.75, -0.75, 1.0 / 3, -1.0 / 3, 2, -2, 3, -3, 7, 64, -64, 1.5, -1.5,
	2.5, -3.3, 0.4999999999999999, 0.5000000000000001, 100.5, -100.75,
	-1 / 0.7, 254.75, 255, -255, 255.25, 255.75, 256, -256, 1000, 1e10,
	1 << 53, 1 << 63, -(1 << 63), 1e300, math.MaxFloat64,
	math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// powerInputs is the edge table: the inputs pow special-cases, the
// ends of the float64 range, and every power of two with its two
// neighbours — which walks each exponent's [lo, hi] guard from both
// sides and crosses into subnormal intermediates just past it.
func powerInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), -2.5, -8, 1e-300, 1e300,
		math.Nextafter(1, 0), math.Nextafter(1, 2), 3, 10, 1e9, 1e-9, math.Pi,
	}
	for k := -1074; k <= 1023; k++ {
		x := math.Ldexp(1, k)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)), 1.7*x)
	}
	return xs
}

// sameBits is bit equality with NaN ≡ NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// samePow fails on a mismatch between the kernel and math.Pow.
func samePow(t *testing.T, p *Power, x, y float64) {
	t.Helper()
	if got, want := p.At(x), math.Pow(x, y); !sameBits(got, want) {
		t.Fatalf("Power(%v).At(%v) = %v (%#x), math.Pow = %v (%#x)",
			y, x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func skipUnlessPortablePow(t testing.TB) {
	if runtime.GOARCH == "s390x" {
		t.Skip("math.Pow is assembly on s390x; Power reproduces the portable pow's operations")
	}
}

func TestPowerMatchesPow(t *testing.T) {
	skipUnlessPortablePow(t)
	inputs := powerInputs()
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(1))
	for _, y := range powerExponents {
		p := NewPower(y)
		for _, x := range inputs {
			samePow(t, &p, x, y)
		}
		for i := 0; i < n; i++ {
			samePow(t, &p, math.Float64frombits(rng.Uint64()), y)
			// Log-uniform over the whole positive range, subnormals included.
			samePow(t, &p, math.Ldexp(1+rng.Float64(), -1075+rng.Intn(2099)), y)
		}
	}
}

func FuzzPowerMatchesPow(f *testing.F) {
	skipUnlessPortablePow(f)
	inputs := powerInputs()
	for i, y := range powerExponents {
		for j := i; j < len(inputs); j += 997 {
			f.Add(math.Float64bits(inputs[j]), math.Float64bits(y))
		}
	}
	f.Fuzz(func(t *testing.T, xbits, ybits uint64) {
		y := math.Float64frombits(ybits)
		p := NewPower(y)
		samePow(t, &p, math.Float64frombits(xbits), y)
	})
}

// TestAlphaKernelMatchesAlphaFair: the kernel on the effective weight
// is AlphaFair's own Marginal/InverseMarginal, bit for bit.
func TestAlphaKernelMatchesAlphaFair(t *testing.T) {
	skipUnlessPortablePow(t)
	same := func(name string, u AlphaFair, at, got, want float64) {
		t.Helper()
		if !sameBits(got, want) {
			t.Fatalf("%v: kernel %s(%v) = %v, AlphaFair's = %v", u, name, at, got, want)
		}
	}
	weights := []float64{0, -3, 1, 2.5, 1e-72, 0x1p-1022, 5e-324, 1e300, math.Inf(1)}
	args := []float64{-1, 0, 5e-324, 1e-300, 1e-9, 0.25, 0.999, 1, 1.5, 1e4, 1e9, 4e10, 1e300, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		args = append(args, math.Ldexp(1+rng.Float64(), -200+rng.Intn(400)))
	}
	for _, alpha := range []float64{0, 0.125, 0.5, 1, 1 + 1e-13, 1 - 1e-13, 2, 8} {
		k := NewAlphaKernel(alpha)
		for _, w := range weights {
			u := AlphaFair{Alpha: alpha, Weight: w}
			for _, a := range args {
				same("Marginal", u, a, k.Marginal(u.EffectiveWeight(), a), u.Marginal(a))
				same("InverseMarginal", u, a, k.InverseMarginal(u.EffectiveWeight(), a), u.InverseMarginal(a))
			}
		}
	}
}

var powSink float64

// BenchmarkAlphaKernel prices the FCT-min utility's two evaluations
// (ε = 0.125: y = 0.125 and y = −8) through AlphaFair's methods —
// math.Pow per call — and through a prepared kernel, on the magnitudes
// an xWI solve feeds them.
func BenchmarkAlphaKernel(b *testing.B) {
	u := FCTMin(100_000, 0.125)
	k := NewAlphaKernel(u.Alpha)
	w := u.EffectiveWeight()
	xs := make([]float64, 1024)
	ps := make([]float64, len(xs))
	rng := rand.New(rand.NewSource(3))
	for i := range xs {
		xs[i] = 1e6 + 1e10*rng.Float64()
		ps[i] = u.Marginal(xs[i]) * (0.5 + rng.Float64())
	}
	b.Run("Marginal/pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			powSink += u.Marginal(xs[i%len(xs)])
		}
	})
	b.Run("Marginal/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			powSink += k.Marginal(w, xs[i%len(xs)])
		}
	})
	b.Run("InverseMarginal/pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			powSink += u.InverseMarginal(ps[i%len(ps)])
		}
	})
	b.Run("InverseMarginal/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			powSink += k.InverseMarginal(w, ps[i%len(ps)])
		}
	})
}
