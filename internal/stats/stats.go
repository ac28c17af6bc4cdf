// Package stats provides the small statistical tools the experiments
// need: time-based exponentially weighted moving averages (the paper
// filters rates with an 80 µs EWMA), percentiles, CDFs and histograms.
package stats

import (
	"math"
	"sort"

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

// Initialized reports whether any sample has been observed.
func (e *EWMA) Initialized() bool { return e.init }

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
// slice. xs is not modified. Several quantiles of one sample are one
// Summarize (one sort), not several calls.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

// quantileSorted is Percentile of a non-empty ascending slice (NaNs
// first, as sort.Float64s leaves them).
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
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return quantileSorted(s, p) }
	return Summary{
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
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, 0, len(s))
	for i, x := range s {
		p := float64(i+1) / float64(len(s))
		if len(out) > 0 && out[len(out)-1].X == x {
			out[len(out)-1].P = p
			continue
		}
		out = append(out, CDFPoint{X: x, P: p})
	}
	return out
}
