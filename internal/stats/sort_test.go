package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"numfabric/internal/sim"
)

// sortedSame returns the first index at which got and want hold values
// that differ under ==, a NaN matching a NaN, or -1.
func sortedSame(got, want []float64) int {
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// FuzzSortFloats holds radixSort, and sortFloats on either side of
// radixCutoff, to sort.Float64s element by element. The input's 8-byte
// words are the values, repeated rep times — even copies exactly (ties),
// odd copies with their low mantissa bits perturbed — so a short input
// reaches the radix path's lengths (up to 2^17 values), with few
// distinct values or many.
func FuzzSortFloats(f *testing.F) {
	words := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	negZero, sub := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	f.Add(words(3, 1, 2), uint16(0))
	f.Add(words(math.NaN(), 1, negZero, 0, math.Inf(-1), math.Inf(1), sub, -sub), uint16(0))
	f.Add(words(math.NaN(), 1, negZero, 0, math.Inf(-1), math.Inf(1), sub, -sub), uint16(200))
	f.Add(words(2.5, -1e300, 1e-310, -1e-310, math.MaxFloat64, -math.MaxFloat64), uint16(100))
	f.Add(words(1, 1, 1, 1), uint16(300))
	f.Add(words(math.Float64frombits(0xfff8000000000001), 7, -7), uint16(400))
	f.Fuzz(func(t *testing.T, data []byte, rep uint16) {
		m := len(data) / 8
		if m == 0 {
			return
		}
		n := min(m*(1+int(rep%2048)), max(m, 1<<17))
		xs := make([]float64, n)
		for i := range xs {
			b := binary.LittleEndian.Uint64(data[8*(i%m):])
			if c := i / m; c%2 == 1 {
				b ^= uint64(c)
			}
			xs[i] = math.Float64frombits(b)
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		radix := append([]float64(nil), xs...)
		radixSort(radix, make([]float64, n))
		if i := sortedSame(radix, want); i >= 0 {
			t.Fatalf("radixSort of %d values: [%d] = %v, sort.Float64s has %v", n, i, radix[i], want[i])
		}
		got := append([]float64(nil), xs...)
		sortFloats(got)
		if i := sortedSame(got, want); i >= 0 {
			t.Fatalf("sortFloats of %d values: [%d] = %v, sort.Float64s has %v", n, i, got[i], want[i])
		}
	})
}

// slowdowns draws n heavy-tailed values ≥ 1, shaped like the normalized
// FCTs Summarize is given.
func slowdowns(n int) []float64 {
	rng := sim.NewRNG(1)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 + rng.ExpFloat64()*rng.ExpFloat64()*rng.ExpFloat64()*5
	}
	return xs
}

// fewValues is n values taken from 512 slowdowns, each about 40 % less
// often than the one before, so that they pile on a few, as a coflow
// play's do: its 200 k slowdowns take 525 values, ten of them 85 %.
func fewValues(n int) []float64 {
	xs, rng := slowdowns(512), sim.NewRNG(2)
	few := make([]float64, n)
	for i := range few {
		few[i] = xs[min(int(rng.ExpFloat64()*2), 511)]
	}
	return few
}

// TestRepeatsRoutesFewValues: sortFloats sends a million slowdowns to
// the radix sort and a million fewValues to sort.Float64s, each the
// faster there (BenchmarkSortFloats).
func TestRepeatsRoutesFewValues(t *testing.T) {
	if repeats(slowdowns(1_000_000)) {
		t.Error("repeats: true on slowdowns, which radix-sort faster")
	}
	if !repeats(fewValues(1_000_000)) {
		t.Error("repeats: false on fewValues, which sort.Float64s sorts faster")
	}
}

// BenchmarkSortFloats: ns per value to copy and sort n slowdowns, and n
// fewValues, by radix and by sort.Float64s. The 1M rows are a
// million-flow play's Summarize and show why repeats sends fewValues to
// sort.Float64s; the short rows place radixCutoff.
func BenchmarkSortFloats(b *testing.B) {
	for _, n := range []int{256, 512, 768, 1024, 2048, 1_000_000} {
		xs, few := slowdowns(n), fewValues(n)
		s, scratch := make([]float64, n), make([]float64, n)
		for _, c := range []struct {
			name string
			xs   []float64
			sort func()
		}{
			{"radix", xs, func() { radixSort(s, scratch) }},
			{"sort.Float64s", xs, func() { sort.Float64s(s) }},
			{"radix,few-values", few, func() { radixSort(s, scratch) }},
			{"sort.Float64s,few-values", few, func() { sort.Float64s(s) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(s, c.xs)
					c.sort()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/value")
			})
		}
	}
}
