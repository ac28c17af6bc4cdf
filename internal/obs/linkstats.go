package obs

import "math"

// LinkStats accumulates per-link utilization and active-flow
// statistics from the FlowTracer's rate-change stream: exact time
// integrals (∫load·dt, flow-seconds, peak) plus a bounded time series
// sampled at rate-change boundaries. Load covers the traced scope —
// plain finite flows — which is the entire population in the FCT
// experiments.
//
// LinkStats is owned by its FlowTracer and, like it, by the engine
// goroutine: the /links endpoint reads the copy FlowTracer.Publish
// stored, never the running state.
type LinkStats struct {
	caps []float64
	link []linkStat // the running state, one cache line per link
	// log is every link's series, point by point as taken, in chunks of
	// logChunk that an append never moves: a new point lands beside the
	// last, not in a cold line of its link's series.
	log       [][]logPoint
	nlog      int
	maxPoints int
	t0, t1    float64 // observed virtual-time span (+Inf, −Inf before any)
}

// linkStat is all a rate change on a link reads and writes, in 64
// bytes (a slice of them is page-aligned past 32 KB).
type linkStat struct {
	load     float64 // current traced bits/second
	lastT    float64 // last integral update
	utilBits float64 // ∫ load dt: bits carried by traced flows
	flowSecs float64 // ∫ active dt
	peak     float64 // max load sustained over a nonzero interval
	seriesT  float64 // the last series point's instant
	active   int32   // current traced flows
	points   int32   // the series' length
	last     int     // the last series point's place in the log
}

// LinkPoint is one time-series sample: the link's traced load
// (bits/second) and active flow count at virtual time T.
type LinkPoint struct {
	T      float64 `json:"t"`
	Load   float64 `json:"load"`
	Active int32   `json:"active"`
}

// logPoint is a LinkPoint tagged with its link, in the same 24 bytes.
type logPoint struct {
	t, load      float64
	active, link int32
}

const logChunk = 1 << 12 // 96 KB of points

// linkSeriesCap bounds the stored time series per link. Aggregates
// stay exact past the cap.
const linkSeriesCap = 512

func newLinkStats(caps []float64) *LinkStats {
	return &LinkStats{
		caps:      caps,
		link:      make([]linkStat, len(caps)),
		maxPoints: linkSeriesCap,
		t0:        math.Inf(1),
		t1:        math.Inf(-1),
	}
}

// advance integrates a link's running load and flow count up to t.
// Peak load is sampled over the settled interval [lastT, t), not per
// rate delta: one instant's per-flow updates land one by one, and their
// transient mix of old and new rates can exceed capacity.
func (ls *linkStat) advance(t float64) {
	if dt := t - ls.lastT; dt > 0 {
		if ls.load > ls.peak {
			ls.peak = ls.load
		}
		ls.utilBits += ls.load * dt
		ls.flowSecs += float64(ls.active) * dt
		ls.lastT = t
	}
}

// point samples link l's series at t, passing a full series (every
// link's, a few ms into a large run) over inline.
func (s *LinkStats) point(l int32, ls *linkStat, t float64) {
	if ls.seriesT == t || int(ls.points) < s.maxPoints {
		s.sample(l, ls, t)
	}
}

func (s *LinkStats) sample(l int32, ls *linkStat, t float64) {
	switch {
	case ls.points > 0 && ls.seriesT == t:
		// Same reallocation instant: keep only the settled state, not
		// the per-flow transients in between.
	case ls.points > 0 && t < ls.seriesT, int(ls.points) >= s.maxPoints:
		return // an instant before the last point's, or a full series
	default:
		if s.nlog%logChunk == 0 {
			s.log = append(s.log, make([]logPoint, logChunk))
		}
		ls.last, ls.points, ls.seriesT = s.nlog, ls.points+1, t
		s.nlog++
	}
	p := &s.log[ls.last/logChunk][ls.last%logChunk] // written in place, as FlowRecord.segment explains
	p.t, p.load, p.active, p.link = t, ls.load, ls.active, l
}

func (s *LinkStats) observe(t float64) {
	s.t0, s.t1 = min(s.t0, t), max(s.t1, t)
}

// addFlow counts a flow onto links at t, carrying rate d from the
// same instant on (0: rated later). The tracer calls addFlow, rateDelta
// and removeFlow for tracked flows only, so on a bound LinkStats.
func (s *LinkStats) addFlow(links []int32, t, d float64) {
	s.observe(t)
	for _, l := range links {
		ls := &s.link[l]
		ls.advance(t)
		ls.active++
		if d != 0 {
			ls.load += d
		}
		s.point(l, ls, t)
	}
}

func (s *LinkStats) rateDelta(links []int32, d float64, t float64) {
	if d == 0 {
		return
	}
	s.observe(t)
	for _, l := range links {
		ls := &s.link[l]
		ls.advance(t)
		ls.load += d
		s.point(l, ls, t)
	}
}

func (s *LinkStats) removeFlow(links []int32, lastRate float64, t float64) {
	s.observe(t)
	for _, l := range links {
		ls := &s.link[l]
		ls.advance(t)
		ls.load -= lastRate
		ls.active--
		s.point(l, ls, t)
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
// touched (links with no traced flows are omitted), in storage of the
// caller's. Engine goroutine or after the run only.
func (s *LinkStats) Snapshot() []LinkSnapshot {
	if s == nil {
		return nil
	}
	series := make([][]LinkPoint, len(s.link))
	for i := range s.nlog {
		p := &s.log[i/logChunk][i%logChunk]
		series[p.link] = append(series[p.link], LinkPoint{T: p.t, Load: p.load, Active: p.active})
	}
	span := s.t1 - s.t0
	var out []LinkSnapshot
	for l := range s.caps {
		st := &s.link[l]
		if st.flowSecs == 0 && st.active == 0 {
			continue
		}
		ls := LinkSnapshot{Link: l, Capacity: s.caps[l], Load: st.load, Active: st.active,
			FlowSeconds: st.flowSecs, Points: series[l]}
		if s.caps[l] > 0 {
			if span > 0 {
				ls.AvgUtil = st.utilBits / (s.caps[l] * span)
			}
			ls.PeakUtil = st.peak / s.caps[l]
		}
		out = append(out, ls)
	}
	return out
}

// linkLines returns the tracer's per-link statistics labelled by name:
// the JSONL "link" lines and the /links body.
func (t *FlowTracer) linkLines(name func(link int) string) []LinkLine {
	lines := []LinkLine{}
	for _, ls := range t.LinksSnapshot() {
		lines = append(lines, LinkLine{Type: "link", Name: name(ls.Link), LinkSnapshot: ls})
	}
	return lines
}
