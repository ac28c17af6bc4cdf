// Package stats provides the small statistical tools the experiments
// need: time-based exponentially weighted moving averages (the paper
// filters rates with an 80 µs EWMA), percentiles, CDFs and histograms.
//
// Percentile, Summarize and CDF sort a copy of their sample through one
// sort, sortFloats: an LSD radix sort on order-preserving keys from
// radixCutoff values on, unless a probe finds the sample repeating
// values, and sort.Float64s otherwise. Both leave the sample in the
// same order up to values that compare equal, so every quantile, mean
// and CDF point has the same bits whichever ran (only the sign of a
// zero drawn from a sample holding both zeros, or the payload of a NaN,
// can tell them apart). The copies and the radix
// sort's scratch come from one pool.
package stats

import (
	"math"
	"sort"
	"sync"

	"numfabric/internal/sim"
)

// EWMA is a continuous-time exponentially weighted moving average with
// time constant tau: after an idle gap dt the old value's weight decays
// by exp(-dt/tau). This matches the filter the paper uses to measure
// flow rates (§6.1: "exponential averaging with a time constant of
// 80 µs").
type EWMA struct {
	tau   sim.Duration
	value float64
	last  sim.Time
	init  bool
}

// NewEWMA returns a filter with the given time constant.
func NewEWMA(tau sim.Duration) *EWMA { return &EWMA{tau: tau} }

// Update incorporates a new sample observed at time now.
func (e *EWMA) Update(now sim.Time, sample float64) {
	if !e.init {
		e.value = sample
		e.last = now
		e.init = true
		return
	}
	dt := now.Sub(e.last)
	if dt < 0 {
		dt = 0
	}
	a := math.Exp(-dt.Seconds() / e.tau.Seconds())
	e.value = a*e.value + (1-a)*sample
	e.last = now
}

// Value returns the current filtered value.
func (e *EWMA) Value() float64 { return e.value }

// Reset clears the filter.
func (e *EWMA) Reset() { e.value = 0; e.init = false }

// RateMeter measures a byte-arrival rate in bits/second using the
// paper's EWMA methodology: each arrival contributes an instantaneous
// rate sample bytes/interarrival-gap, smoothed with time constant tau.
type RateMeter struct {
	ewma    EWMA
	last    sim.Time
	started bool
}

// NewRateMeter returns a meter with the given EWMA time constant.
func NewRateMeter(tau sim.Duration) *RateMeter {
	return &RateMeter{ewma: EWMA{tau: tau}}
}

// Observe records n bytes arriving at time now.
func (m *RateMeter) Observe(now sim.Time, n int) {
	if !m.started {
		m.started = true
		m.last = now
		return
	}
	gap := now.Sub(m.last)
	m.last = now
	if gap <= 0 {
		return
	}
	sample := float64(n) * 8 / gap.Seconds()
	m.ewma.Update(now, sample)
}

// Rate returns the filtered rate in bits/second. Before two arrivals
// have been seen it returns 0.
func (m *RateMeter) Rate() float64 { return m.ewma.Value() }

// RateAt returns the filtered rate accounting for silence: if no
// packet has arrived for several time constants, the estimate decays
// toward zero as the idle gap grows, instead of holding the last value
// forever (a starved flow's rate really is ~0, and experiments that
// sample meters asynchronously must see that). Gaps shorter than the
// grace period of 3τ are normal burst spacing and are not decayed —
// otherwise the estimate would oscillate between a flow's paced
// bursts.
func (m *RateMeter) RateAt(now sim.Time) float64 {
	if !m.ewma.init {
		return 0
	}
	grace := 3 * m.ewma.tau
	gap := now.Sub(m.last) - grace
	if gap <= 0 {
		return m.ewma.Value()
	}
	a := math.Exp(-gap.Seconds() / m.ewma.tau.Seconds())
	return a * m.ewma.Value()
}

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics. It returns NaN for an empty
// slice or a NaN p. xs is not modified. Several quantiles of one sample
// are one Summarize (one sort), not several calls.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	s := sortedCopy(xs)
	q := quantileSorted(*s, p)
	buffers.Put(s)
	return q
}

// quantileSorted is Percentile of a non-empty ascending slice (NaNs
// first, as sortFloats leaves them).
func quantileSorted(s []float64, p float64) float64 {
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

// Mean returns the arithmetic mean of xs (NaN if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Summary holds the box-plot statistics the paper reports in Figure 5.
type Summary struct {
	N                  int
	Mean, Median       float64
	P25, P75, P95, P99 float64
	Min, Max           float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, Median: nan, P25: nan, P75: nan, P95: nan, P99: nan, Min: nan, Max: nan}
	}
	b := sortedCopy(xs)
	s := *b
	q := func(p float64) float64 { return quantileSorted(s, p) }
	sum := Summary{
		N:      len(s),
		Mean:   Mean(s),
		Median: q(0.5),
		P25:    q(0.25),
		P75:    q(0.75),
		P95:    q(0.95),
		P99:    q(0.99),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
	buffers.Put(b)
	return sum
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns the empirical CDF of xs evaluated at every distinct
// sample, suitable for plotting (Figure 4a is a CDF of convergence
// times).
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	b := sortedCopy(xs)
	s := *b
	out := make([]CDFPoint, 0, len(s))
	for i, x := range s {
		p := float64(i+1) / float64(len(s))
		if len(out) > 0 && out[len(out)-1].X == x {
			out[len(out)-1].P = p
			continue
		}
		out = append(out, CDFPoint{X: x, P: p})
	}
	buffers.Put(b)
	return out
}

// buffers recycles the sorted copies Percentile, Summarize and CDF take
// and the radix sort's scratch (*[]float64 each), so that several
// quantiles taken of one sample — Median, then Percentile — sort in the
// memory of two copies, as they did before the scratch existed.
var buffers sync.Pool

// getFloats returns a slice of n floats of arbitrary contents from
// buffers, or a new one.
func getFloats(n int) *[]float64 {
	if b, ok := buffers.Get().(*[]float64); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]float64, n)
	return &b
}

// sortedCopy returns xs copied into a slice from buffers and sorted by
// sortFloats. The caller puts it back once done reading it.
func sortedCopy(xs []float64) *[]float64 {
	b := getFloats(len(xs))
	copy(*b, xs)
	sortFloats(*b)
	return b
}

// radixCutoff is the sample length from which sortFloats radix-sorts:
// below it sort.Float64s is the faster of the two (BenchmarkSortFloats).
const radixCutoff = 1024

// sortFloats sorts s ascending with NaNs first, as sort.Float64s does.
// A sample of radixCutoff values or more is radix-sorted unless it
// repeats values.
func sortFloats(s []float64) {
	if len(s) < radixCutoff || repeats(s) {
		sort.Float64s(s)
		return
	}
	scratch := getFloats(len(s))
	radixSort(s, *scratch)
	buffers.Put(scratch)
}

// repeats reports whether fewer than half of 64 values read from s at
// an even stride differ. Such a sample (a coflow play's slowdowns take
// a few hundred values) sorts faster by sort.Float64s, whose
// equal-element partitions shrink it, than by the radix sort's fixed
// passes (BenchmarkSortFloats).
func repeats(s []float64) bool {
	const probe = 64
	var p [probe]float64
	for i := range p {
		p[i] = s[i*len(s)/probe]
	}
	sort.Float64s(p[:])
	differ := 1
	for i := 1; i < probe; i++ {
		if p[i] != p[i-1] {
			differ++
		}
	}
	return differ < probe/2
}

// floatKey maps x to a uint64 whose unsigned order is x's numeric
// order: a negative value's bits flipped, a positive one's (+0's
// included) with the sign bit set. A NaN keys below -Inf if its sign
// bit is set and above +Inf if not.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixSort sorts s (at least one value) as sort.Float64s does by an
// LSD radix sort on floatKey, a byte a pass, moving values between s
// and scratch (as long as s). A pass whose byte every key shares is
// skipped. The NaNs the keys put last are rotated to the front after.
func radixSort(s, scratch []float64) {
	var counts [8][256]int
	for _, x := range s {
		k := floatKey(x)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := s, scratch
	for d := range counts {
		c, shift := &counts[d], uint(8*d)
		if c[byte(floatKey(src[0])>>shift)] == len(s) {
			continue
		}
		at := 0
		for i, n := range c {
			c[i] = at
			at += n
		}
		for _, x := range src {
			b := byte(floatKey(x) >> shift)
			i := c[b]
			dst[i] = x
			c[b] = i + 1
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	n, nan := len(s), 0
	for nan < n && math.IsNaN(s[n-1-nan]) {
		nan++
	}
	if nan > 0 {
		copy(scratch, s[n-nan:])
		copy(s[nan:], s[:n-nan])
		copy(s, scratch[:nan])
	}
}
