package stats

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"numfabric/internal/sim"
)

func TestEWMAFirstSample(t *testing.T) {
	e := NewEWMA(80 * sim.Microsecond)
	e.Update(0, 5.0)
	if e.Value() != 5.0 {
		t.Errorf("first sample should initialize: got %v", e.Value())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(80 * sim.Microsecond)
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		now = now.Add(10 * sim.Microsecond)
		e.Update(now, 42.0)
	}
	if math.Abs(e.Value()-42.0) > 1e-9 {
		t.Errorf("value = %v, want 42", e.Value())
	}
}

func TestEWMARiseTime(t *testing.T) {
	// Step 0 -> 1: after time T the response is 1 - exp(-T/tau).
	// The paper quotes ln(10)*80us = 185us to reach 90%.
	tau := 80 * sim.Microsecond
	e := NewEWMA(tau)
	e.Update(0, 0)
	now := sim.Time(0)
	step := sim.Microsecond
	for e.Value() < 0.9 {
		now = now.Add(sim.Duration(step))
		e.Update(now, 1.0)
	}
	riseUs := float64(now) / 1e6
	if riseUs < 175 || riseUs > 195 {
		t.Errorf("90%% rise time = %.1fus, want ~184us", riseUs)
	}
}

func TestEWMADecaysWithGap(t *testing.T) {
	e := NewEWMA(10 * sim.Microsecond)
	e.Update(0, 100)
	// A sample after a long gap should dominate.
	e.Update(sim.Time(1000*sim.Microsecond), 1)
	if math.Abs(e.Value()-1) > 1e-6 {
		t.Errorf("after long gap value = %v, want ~1", e.Value())
	}
}

func TestRateMeterConstantStream(t *testing.T) {
	m := NewRateMeter(20 * sim.Microsecond)
	// 1500B packets every 1.2us = 10 Gbps.
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		m.Observe(now, 1500)
		now = now.Add(sim.Duration(1200 * sim.Nanosecond))
	}
	got := m.Rate()
	want := 1e10
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("rate = %v, want ~%v", got, want)
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
}

// TestPercentileNaNQuantile: a NaN quantile is no quantile — NaN, as for
// an empty sample. It used to panic converting int(NaN) to an index.
func TestPercentileNaNQuantile(t *testing.T) {
	for _, xs := range [][]float64{{1}, {3, 1, 2}, {math.NaN(), 1}} {
		if got := Percentile(xs, math.NaN()); !math.IsNaN(got) {
			t.Errorf("Percentile(%v, NaN) = %v, want NaN", xs, got)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileMonotoneQuick(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("unexpected summary: %+v", s)
	}
}

// percentileBeforeSortOnce is Percentile as it stood while Summarize
// still called it on its sorted copy (six sorts a summary): copy, sort,
// interpolate.
func percentileBeforeSortOnce(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// TestSortOnceKeepsEveryBit: Summarize sorting once and Percentile
// going through quantileSorted return the bits the copy-and-sort-per-
// quantile path returned — on random samples, samples with NaNs (which
// sort first and poison what they touch), heavy ties, and the lengths
// where the interpolation's edge cases live.
func TestSortOnceKeepsEveryBit(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := sim.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		xs := make([]float64, trial%7+rng.Intn(200))
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = rng.ExpFloat64() * 1e3
			case 1:
				xs[i] = float64(rng.Intn(4)) // ties
			default:
				if xs[i] = rng.Float64() - 0.5; rng.Intn(10) == 0 {
					xs[i] = math.NaN()
				}
			}
		}
		for _, p := range []float64{-1, 0, 0.25, 0.5, 0.75, 0.95, 0.99, 1, 2, rng.Float64()} {
			if got, want := Percentile(xs, p), percentileBeforeSortOnce(xs, p); !same(got, want) {
				t.Fatalf("trial %d: Percentile(%d values, %v) = %v, was %v", trial, len(xs), p, got, want)
			}
		}
		if len(xs) == 0 {
			continue
		}
		s, q := Summarize(xs), func(p float64) float64 { return percentileBeforeSortOnce(xs, p) }
		got := []float64{s.Median, s.P25, s.P75, s.P95, s.P99, s.Min, s.Max}
		want := []float64{q(0.5), q(0.25), q(0.75), q(0.95), q(0.99), q(0), q(1)}
		for i := range got {
			if !same(got[i], want[i]) {
				t.Fatalf("trial %d: Summarize(%d values) quantile %d = %v, was %v", trial, len(xs), i, got[i], want[i])
			}
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	xs := []float64{3, 1, 2, 2, 5}
	cdf := CDF(xs)
	if cdf[len(cdf)-1].P != 1 {
		t.Errorf("CDF should end at 1: %+v", cdf)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].X <= cdf[i-1].X || cdf[i].P <= cdf[i-1].P {
			t.Errorf("CDF not strictly increasing: %+v", cdf)
		}
	}
	// Duplicates collapse into one point.
	for _, pt := range cdf {
		if pt.X == 2 && pt.P != 0.6 {
			t.Errorf("P(x<=2) = %v, want 0.6", pt.P)
		}
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean wrong")
	}
	if Median([]float64{1, 2, 100}) != 2 {
		t.Error("median wrong")
	}
}

// summarizeBySort is Summarize written out over sort.Float64s: copy,
// sort, then every field from the sorted copy. It is the reference a
// faster sort must match bit for bit.
func summarizeBySort(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	q := func(p float64) float64 { return percentileBeforeSortOnce(xs, p) }
	return Summary{N: len(s), Mean: sum / float64(len(s)), Median: q(0.5), P25: q(0.25), P75: q(0.75),
		P95: q(0.95), P99: q(0.99), Min: s[0], Max: s[len(s)-1]}
}

// hostileSample draws n values of one kind: heavy-tailed positives (the
// slowdowns Summarize sees most), ties, NaNs among signed values,
// infinities, subnormals, or both zeros.
func hostileSample(rng *sim.RNG, kind, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch kind {
		case 0:
			xs[i] = 1 + rng.ExpFloat64()*rng.ExpFloat64()*10
		case 1:
			xs[i] = float64(rng.Intn(5))
		case 2:
			if xs[i] = (rng.Float64() - 0.5) * 2e3; rng.Intn(20) == 0 {
				xs[i] = math.NaN()
			}
		case 3:
			xs[i] = []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, rng.Float64() - 0.5}[rng.Intn(5)]
		case 4:
			xs[i] = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
			if rng.Intn(2) == 0 {
				xs[i] = -xs[i]
			}
		default:
			xs[i] = []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
		}
	}
	return xs
}

// sameBits is bit identity, except that a zero may differ in sign when
// the sample holds both zeros: a sort is free to order -0 and +0, which
// compare equal, either way.
func sameBits(a, b float64, signedZeros bool) bool {
	return math.Float64bits(a) == math.Float64bits(b) || signedZeros && a == 0 && b == 0
}

// TestSummarizeKeepsEveryBit: every Summary field, every Percentile and
// every CDF point come out as the sort.Float64s path computes them, on
// samples of every hostile kind at lengths from 1 to past 65,536.
func TestSummarizeKeepsEveryBit(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, n := range []int{1, 2, 3, 12, 13, 100, 255, 256, 257, 1000, 4097, 70000} {
		for kind := 0; kind < 6; kind++ {
			xs := hostileSample(rng, kind, n)
			zeros := kind == 5
			got, want := Summarize(xs), summarizeBySort(xs)
			g := []float64{got.Mean, got.Median, got.P25, got.P75, got.P95, got.P99, got.Min, got.Max}
			w := []float64{want.Mean, want.Median, want.P25, want.P75, want.P95, want.P99, want.Min, want.Max}
			if got.N != want.N {
				t.Fatalf("n=%d kind %d: N = %d, want %d", n, kind, got.N, want.N)
			}
			for i := range g {
				if !sameBits(g[i], w[i], zeros) {
					t.Fatalf("n=%d kind %d: Summary field %d = %v, want %v", n, kind, i, g[i], w[i])
				}
			}
			for _, p := range []float64{0, 0.01, 0.5, 0.999, 1, rng.Float64()} {
				if got, want := Percentile(xs, p), percentileBeforeSortOnce(xs, p); !sameBits(got, want, zeros) {
					t.Fatalf("n=%d kind %d: Percentile(%v) = %v, want %v", n, kind, p, got, want)
				}
			}
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			cdf := CDF(xs)
			j := 0
			for i, x := range s {
				if i > 0 && x == s[i-1] {
					continue
				}
				for i+1 < len(s) && s[i+1] == x {
					i++
				}
				if p := float64(i+1) / float64(len(s)); j >= len(cdf) || !sameBits(cdf[j].X, x, zeros) || cdf[j].P != p {
					t.Fatalf("n=%d kind %d: CDF point %d = %+v, want {%v %v}", n, kind, j, cdf[j:min(j+1, len(cdf))], x, p)
				}
				j++
			}
			if j != len(cdf) {
				t.Fatalf("n=%d kind %d: CDF has %d points, want %d", n, kind, len(cdf), j)
			}
		}
	}
}

// TestSortBuffersShared: goroutines summarizing their own samples at
// once, through the pooled copies and scratch, each get their sample's
// summary (run with -race).
func TestSortBuffersShared(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		xs := hostileSample(sim.NewRNG(uint64(g)), g%3, 500+1500*g)
		want, wantP, wantCDF := summarizeBySort(xs), percentileBeforeSortOnce(xs, 0.9), len(CDF(xs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, gotP, gotCDF := Summarize(xs), Percentile(xs, 0.9), len(CDF(xs))
				if !sameBits(got.Median, want.Median, false) || !sameBits(got.Mean, want.Mean, false) ||
					!sameBits(gotP, wantP, false) || gotCDF != wantCDF {
					t.Errorf("%d values: summary %+v, p90 %v, %d CDF points; want %+v, %v, %d", len(xs), got, gotP, gotCDF, want, wantP, wantCDF)
					return
				}
			}
		}()
	}
	wg.Wait()
}
