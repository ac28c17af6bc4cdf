package obs

import "math"

// Histogram bucketing: log-linear, the HDR-histogram idea cut to its
// core. A value lands in the bucket of its power-of-two octave
// (math.Frexp exponent, biased so sub-unit values resolve too),
// subdivided into histSub linear sub-buckets — so the relative
// quantile error is bounded by one sub-bucket, a factor of
// 2^(1/histSub) ≈ 9%, with a fixed 4 KB of memory.
const (
	histSub     = 8
	histOctaves = 64
	// histBias shifts the frexp exponent so values down to 2^-16 get
	// their own octaves; with 64 octaves the top of the range is
	// 2^47 — in nanoseconds, about 40 hours.
	histBias    = 16
	histBuckets = histOctaves * histSub
)

// Histogram is a fixed-size log-linear histogram with one writer:
// Observe is a handful of float ops and plain stores, so a Histogram
// belongs to one goroutine (Live's two live on the engine's, and
// Live.Publish hands scrapers Snapshot copies). Negative and NaN
// observations are dropped; zero lands in the lowest bucket.
type Histogram struct {
	count, dropped int64
	sum, min, max  float64
	buckets        [histBuckets]int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// bucketOf maps v (> 0) to its bucket index, reading math.Frexp's
// exponent and fraction off v's bits: the exponent picks the octave,
// the top three mantissa bits (histSub = 2³) the sub-bucket. Subnormals
// land in the first bucket, +Inf in the last.
func bucketOf(v float64) int {
	b := math.Float64bits(v)
	oct := int(b>>52) - 1022 + histBias // Frexp's exponent, biased
	if oct < 0 {
		return 0
	}
	if oct >= histOctaves {
		return histBuckets - 1
	}
	return oct*histSub + int(b>>49&(histSub-1))
}

// bucketMid returns the geometric representative (midpoint) of bucket
// i — the value quantiles report for ranks landing in it.
func bucketMid(i int) float64 {
	oct := i / histSub
	sub := i % histSub
	lo := math.Ldexp(0.5+float64(sub)/(2*histSub), oct-histBias)
	hi := math.Ldexp(0.5+float64(sub+1)/(2*histSub), oct-histBias)
	return (lo + hi) / 2
}

// Observe records one sample. A nil *Histogram is a no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || v < 0 {
		h.dropped++
		return
	}
	idx := 0
	if v > 0 {
		idx = bucketOf(v)
	}
	h.buckets[idx]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Quantile returns the q-quantile (q ∈ [0, 1]) as the representative
// value of the bucket holding that rank, NaN when empty. The relative
// error is bounded by the sub-bucket width (≈ 9%).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	n := h.count
	if n == 0 {
		return math.NaN()
	}
	rank := min(max(int64(math.Ceil(q*float64(n))), 1), n)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i]
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return h.max
}

// HistogramSnapshot is the JSON view of a histogram: count, moments,
// and the standard quantiles.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Dropped int64   `json:"dropped,omitempty"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
}

// Snapshot captures the histogram's current state. NaNs (empty
// histogram) are rendered as zeros so the snapshot stays valid JSON.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	if h.count == 0 {
		return HistogramSnapshot{Dropped: h.dropped}
	}
	return HistogramSnapshot{Count: h.count, Dropped: h.dropped, Mean: h.sum / float64(h.count),
		Min: h.min, Max: h.max, P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99)}
}
