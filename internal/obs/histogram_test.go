package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"numfabric/internal/stats"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var h *Histogram
	var p *PhaseProfiler
	var l *Live
	var tr *Tracer
	h.Observe(1)
	p.Arm()
	p.Lap(PhaseSolve)
	l.Batch(1)
	l.Solve(1)
	l.Publish(0, 0, 0, nil)
	tr.Span(0, 0, 0)
	if h.Snapshot().Count != 0 || p.TotalNanos() != 0 || tr.TotalSpans() != 0 || l.Due(true) {
		t.Fatal("nil instruments must read as zero")
	}
	if got := l.Progress(); got != (ProgressSnapshot{Schema: SchemaVersion}) {
		t.Fatalf("nil live hook's progress = %+v, want zero", got)
	}
	if m := l.Metrics(); len(m.Counters)+len(m.Gauges)+len(m.Histograms) != 0 {
		t.Fatalf("nil live hook's metrics = %+v, want empty", m)
	}
}

// TestHistogramQuantiles checks the log-linear buckets against the
// exact stats.Percentile over the same samples: every quantile must
// be within the histogram's design error bound (one sub-bucket,
// 2^(1/8) ≈ 9%; allow 15% for boundary effects).
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var xs []float64
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, the shape of solve durations.
		v := math.Exp(rng.Float64()*14 - 4)
		xs = append(xs, v)
		h.Observe(v)
	}
	for _, q := range []float64{0.10, 0.50, 0.90, 0.99} {
		exact := stats.Percentile(xs, q)
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.15 {
			t.Errorf("q=%.2f: histogram %.4g vs exact %.4g (rel err %.1f%%)",
				q, got, exact, rel*100)
		}
	}
	if h.Snapshot().Count != int64(len(xs)) {
		t.Fatalf("count = %d, want %d", h.Snapshot().Count, len(xs))
	}
	snap := h.Snapshot()
	exactMean := stats.Mean(xs)
	if rel := math.Abs(snap.Mean-exactMean) / exactMean; rel > 1e-9 {
		t.Errorf("mean = %g, want %g", snap.Mean, exactMean)
	}
	if snap.Min != stats.Percentile(xs, 0) || snap.Max != stats.Percentile(xs, 1) {
		t.Errorf("min/max = %g/%g, want %g/%g",
			snap.Min, snap.Max, stats.Percentile(xs, 0), stats.Percentile(xs, 1))
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram()
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	if snap := h.Snapshot(); snap.Count != 0 || snap.Mean != 0 || snap.P99 != 0 {
		t.Errorf("empty snapshot should be zeros, got %+v", snap)
	}
	h.Observe(math.NaN())
	h.Observe(-1)
	if h.Snapshot().Count != 0 || h.Snapshot().Dropped != 2 {
		t.Fatalf("count/dropped = %d/%d, want 0/2", h.Snapshot().Count, h.Snapshot().Dropped)
	}
	h.Observe(0)
	if h.Snapshot().Count != 1 || h.Quantile(0.5) < 0 {
		t.Fatalf("zero sample mishandled: count=%d q50=%g", h.Snapshot().Count, h.Quantile(0.5))
	}
	// Far out-of-range values clamp to the end buckets, never panic.
	h.Observe(1e300)
	h.Observe(1e-300)
	h.Observe(math.Inf(1))
	if s := h.Snapshot(); s.Count != 4 || s.P99 != bucketMid(histBuckets-1) || s.Max != math.Inf(1) {
		t.Fatalf("snapshot = %+v, want 4 samples, p99 in the last bucket, max +Inf", s)
	}
}

// TestHistogramQuantileBounds: out-of-range q clamps to the extreme
// ranks instead of panicking or walking off the bucket array, and the
// reported quantiles respect the log-linear relative-error bound.
func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if q := h.Quantile(-0.5); math.Abs(q-1) > 1*0.10 {
		t.Errorf("q<0 should clamp to the minimum rank: got %g", q)
	}
	if q := h.Quantile(2); math.Abs(q-1000) > 1000*0.10 {
		t.Errorf("q>1 should clamp to the maximum rank: got %g", q)
	}
	// Interior quantiles stay within one sub-bucket (≈9% relative).
	for _, tc := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.want*0.10 {
			t.Errorf("Quantile(%g) = %g, want %g ±10%%", tc.q, got, tc.want)
		}
	}
}

// TestHistogramsPublishedWithStats: the histograms have one writer,
// the engine goroutine, and a scrape reads the snapshots the engine
// published with its Stats — so in every /metrics body the batch-width
// histogram holds exactly the batches its engine.batches counter
// counts, however the scrapes interleave with the engine. Under -race
// this is also the hook's guard against a histogram read off the
// engine goroutine.
func TestHistogramsPublishedWithStats(t *testing.T) {
	l := NewLive()
	const scrapers, scrapesEach = 4, 50
	var wg sync.WaitGroup
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < scrapesEach; n++ {
				m := l.Metrics()
				h, batches := m.Histograms["engine.batch_components"], m.Counters["engine.batches"]
				if h.Count != batches || m.Histograms["engine.component_flows"].Count != 2*batches {
					t.Errorf("histograms of another event than the counters: %d batches, histograms %+v", batches, m.Histograms)
					return
				}
			}
		}()
	}
	scraped := make(chan struct{})
	go func() { wg.Wait(); close(scraped) }()
	var st fakeStats
	for running := true; running; {
		select {
		case <-scraped:
			running = false
		default:
		}
		st.Batches++
		l.Batch(1 + st.Batches%3)
		l.Solve(st.Batches % 5)
		l.Solve(7)
		if l.Due(false) {
			l.Publish(float64(st.Batches), 0, 0, st)
		}
	}
}
