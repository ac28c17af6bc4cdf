package obs

import "math"

// LinkStats accumulates per-link utilization and active-flow
// statistics from the FlowTracer's rate-change stream: exact time
// integrals (∫load·dt, flow-seconds, peak) plus a bounded time series
// sampled at rate-change boundaries. Load covers the traced scope —
// plain finite flows — which is the entire population in the FCT
// experiments.
//
// LinkStats is mutated only through the owning FlowTracer (under its
// mutex, on the engine goroutine); Snapshot takes its own lock so the
// /links endpoint can read concurrently.
type LinkStats struct {
	caps   []float64
	load   []float64 // current traced bits/second per link
	active []int32   // current traced flows per link

	lastT    []float64 // last integral update per link
	utilBits []float64 // ∫ load dt: bits carried by traced flows
	flowSecs []float64 // ∫ active dt
	peak     []float64 // max load sustained over a nonzero interval

	series    [][]LinkPoint
	seriesT   []float64 // last series sample per link
	maxPoints int

	t0, t1     float64 // observed virtual-time span (+Inf, −Inf before any)
	truncated  int64   // series points dropped by the per-link cap
	maxPerLink int32   // peak active flows on any single link
}

// LinkPoint is one time-series sample: the link's traced load
// (bits/second) and active flow count at virtual time T.
type LinkPoint struct {
	T      float64 `json:"t"`
	Load   float64 `json:"load"`
	Active int32   `json:"active"`
}

// linkSeriesCap bounds the stored time series per link. Aggregates
// stay exact past the cap.
const linkSeriesCap = 512

func newLinkStats(caps []float64) *LinkStats {
	n := len(caps)
	return &LinkStats{
		caps:      caps,
		load:      make([]float64, n),
		active:    make([]int32, n),
		lastT:     make([]float64, n),
		utilBits:  make([]float64, n),
		flowSecs:  make([]float64, n),
		peak:      make([]float64, n),
		series:    make([][]LinkPoint, n),
		seriesT:   make([]float64, n),
		maxPoints: linkSeriesCap,
		t0:        math.Inf(1),
		t1:        math.Inf(-1),
	}
}

// advance integrates link l's running load and flow count up to t.
// Peak load is sampled here — over the settled interval [lastT, t) —
// rather than per rate delta: within one reallocation instant the
// per-flow updates land sequentially, and the transient mix of new
// and old rates can exceed capacity without any settled state doing
// so. Zero-width intervals contribute nothing to the integrals for
// the same reason.
func (s *LinkStats) advance(l int32, t float64) {
	if dt := t - s.lastT[l]; dt > 0 {
		if s.load[l] > s.peak[l] {
			s.peak[l] = s.load[l]
		}
		s.utilBits[l] += s.load[l] * dt
		s.flowSecs[l] += float64(s.active[l]) * dt
		s.lastT[l] = t
	}
	s.t0, s.t1 = min(s.t0, t), max(s.t1, t)
}

// point samples link l's series at t. seriesT[l] is the last point's
// instant, so a full series — every link's, a few ms into a large run —
// is dismissed without loading its 12 KB of points.
func (s *LinkStats) point(l int32, t float64) {
	ser := s.series[l]
	if n := len(ser); n > 0 && s.seriesT[l] == t {
		// Same reallocation instant: keep only the settled state, not
		// the per-flow transients in between.
		ser[n-1] = LinkPoint{T: t, Load: s.load[l], Active: s.active[l]}
		return
	}
	if len(ser) > 0 && t < s.seriesT[l] {
		return // an instant before the last point's
	}
	if len(ser) >= s.maxPoints {
		s.truncated++
		return
	}
	s.series[l] = append(ser, LinkPoint{T: t, Load: s.load[l], Active: s.active[l]})
	s.seriesT[l] = t
}

func (s *LinkStats) addFlow(links []int32, t float64) {
	if s == nil {
		return
	}
	for _, l := range links {
		s.advance(l, t)
		s.active[l]++
		if s.active[l] > s.maxPerLink {
			s.maxPerLink = s.active[l]
		}
		s.point(l, t)
	}
}

func (s *LinkStats) rateDelta(links []int32, d float64, t float64) {
	if s == nil || d == 0 {
		return
	}
	for _, l := range links {
		s.advance(l, t)
		s.load[l] += d
		s.point(l, t)
	}
}

func (s *LinkStats) removeFlow(links []int32, lastRate float64, t float64) {
	if s == nil {
		return
	}
	for _, l := range links {
		s.advance(l, t)
		s.load[l] -= lastRate
		s.active[l]--
		s.point(l, t)
	}
}

// LinkSnapshot is one link's statistics in the /links endpoint and
// the JSONL export.
type LinkSnapshot struct {
	Link     int     `json:"link"`
	Capacity float64 `json:"capacity"`
	// Load and Active are the traced load (bits/second) and flow
	// count at snapshot time.
	Load   float64 `json:"load"`
	Active int32   `json:"active"`
	// AvgUtil is ∫load·dt / (capacity · span) over the observed
	// virtual-time span; PeakUtil is the maximum load/capacity
	// sustained over a nonzero interval.
	AvgUtil  float64 `json:"avg_util"`
	PeakUtil float64 `json:"peak_util"`
	// FlowSeconds is ∫active·dt.
	FlowSeconds float64     `json:"flow_seconds"`
	Points      []LinkPoint `json:"points,omitempty"`
}

// Snapshot returns per-link statistics for every link the trace
// touched (links with no traced flows are omitted). Must be called
// through the owning FlowTracer's accessors or after the run — the
// engine goroutine mutates concurrently otherwise.
func (s *LinkStats) Snapshot() []LinkSnapshot {
	if s == nil {
		return nil
	}
	span := s.t1 - s.t0
	var out []LinkSnapshot
	for l := range s.caps {
		if s.flowSecs[l] == 0 && s.active[l] == 0 {
			continue
		}
		ls := LinkSnapshot{
			Link:        l,
			Capacity:    s.caps[l],
			Load:        s.load[l],
			Active:      s.active[l],
			FlowSeconds: s.flowSecs[l],
			Points:      append([]LinkPoint(nil), s.series[l]...),
		}
		if s.caps[l] > 0 {
			if span > 0 {
				ls.AvgUtil = s.utilBits[l] / (s.caps[l] * span)
			}
			ls.PeakUtil = s.peak[l] / s.caps[l]
		}
		out = append(out, ls)
	}
	return out
}
