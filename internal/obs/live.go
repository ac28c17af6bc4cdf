package obs

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SchemaVersion stamps the JSON documents other programs read back:
// /metrics, /progress, /flows and the flow trace's summary record.
// Readers report CheckSchema's error for any other value, an absent
// stamp included. Bump it when a key goes away or changes meaning.
const SchemaVersion = 1

// metricsPrefix names the publishing engine's keys in /metrics;
// liveWait bounds how long a scrape waits for the engine's next event
// before it serves the copy published last.
const (
	metricsPrefix = "engine."
	liveWait      = 5 * time.Millisecond
)

// Live is the hook behind /metrics and /progress. An engine counts its
// work in one Stats value and nothing mirrors it: a scraper raises a
// request, the engine — on its own goroutine, after its next event —
// copies its position and Stats() into the hook under a mutex, and both
// endpoints are encoded from that one copy, so they cannot disagree
// with Stats or with each other. With no scraper an event costs the
// engine one atomic load (Due); a run's end publishes unconditionally,
// so a finished run reads exactly. One hook may serve several engines
// in sequence: the endpoints describe the one that published last.
//
// The two distributions Stats has no field for — components per batch,
// flows per solve — are histograms the hook owns (Batch, Solve).
type Live struct {
	want  atomic.Bool   // a scraper is waiting for the next event
	fresh chan struct{} // one token per publish no scraper has taken
	born  int64         // Now() at NewLive: the origin of wall_seconds

	batchComponents, componentFlows *Histogram
	lastBatch                       int // engine goroutine only, until published

	mu    sync.Mutex
	pos   ProgressSnapshot // the published position; its Stats-derived keys are filled per scrape
	stats any              // the Stats value published with it (a leap.Stats or a fluid.Stats)
	// The publish the previous /progress scrape was served, for the
	// rate between scrapes.
	prevWall, prevEvents float64
}

// NewLive returns a hook no engine has published to yet.
func NewLive() *Live {
	return &Live{fresh: make(chan struct{}, 1), born: Now(),
		batchComponents: NewHistogram(), componentFlows: NewHistogram()}
}

// Due reports whether the engine should publish now: a scraper has
// asked, or the run is ending (final). An inlinable nil check and one
// atomic load — all a detached or unscraped hook costs per event.
func (l *Live) Due(final bool) bool { return l != nil && (final || l.want.Load()) }

// Batch observes one reallocation batch's component count.
func (l *Live) Batch(components int) {
	if l != nil {
		l.lastBatch = components
		l.batchComponents.Observe(float64(components))
	}
}

// Solve observes one allocator solve's flow count.
func (l *Live) Solve(flows int) {
	if l != nil {
		l.componentFlows.Observe(float64(flows))
	}
}

// Publish stores the engine's position — virtual time, live flows,
// flows finished so far — and its Stats value as the copy scrapers
// read, and wakes a waiting one. Engine goroutine only, when Due.
func (l *Live) Publish(simSeconds float64, active, finished int, stats any) {
	if l == nil {
		return
	}
	// Cleared first: a request raised from here on is answered by the
	// next event, not lost.
	l.want.Store(false)
	l.mu.Lock()
	l.pos = ProgressSnapshot{Schema: SchemaVersion, SimSeconds: simSeconds, WallSeconds: float64(Now()-l.born) / 1e9,
		ActiveFlows: active, Finished: finished, BatchComponents: l.lastBatch}
	l.stats = stats
	l.mu.Unlock()
	select {
	case l.fresh <- struct{}{}:
	default:
	}
}

// latest raises a request, waits up to liveWait for the engine to
// answer it after its next event, and returns the latest copy either
// way: an idle or finished engine answers with what it published last.
func (l *Live) latest() (ProgressSnapshot, any) {
	select {
	case <-l.fresh: // a publish nobody was waiting for
	default:
	}
	l.want.Store(true)
	select {
	case <-l.fresh:
	case <-time.After(liveWait):
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos, l.stats
}

// Metrics is the /metrics payload: the publishing engine's Stats
// fields, each under "engine." + its json tag — integers as counters,
// floats as gauges, PhaseNanos as one counter per phase name — plus the
// hook's two histograms.
type Metrics struct {
	Schema     int                          `json:"schema"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// metricsOf flattens a Stats struct by its json tags.
func metricsOf(stats any) Metrics {
	m := Metrics{SchemaVersion, map[string]int64{}, map[string]float64{}, map[string]HistogramSnapshot{}}
	v := reflect.ValueOf(stats)
	if v.Kind() != reflect.Struct {
		return m // nothing published yet
	}
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		name = metricsPrefix + name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			m.Counters[name] = f.Int()
		case reflect.Float64:
			m.Gauges[name] = f.Float()
		case reflect.Array:
			for ph := 0; ph < f.Len(); ph++ {
				m.Counters[name+"."+PhaseName(Phase(ph))] = f.Index(ph).Int()
			}
		}
	}
	return m
}

// Metrics asks the engine for a fresh copy and encodes it. A nil hook
// serves the empty document.
func (l *Live) Metrics() Metrics {
	if l == nil {
		return metricsOf(nil)
	}
	_, stats := l.latest()
	m := metricsOf(stats)
	m.Histograms[metricsPrefix+"batch_components"] = l.batchComponents.Snapshot()
	m.Histograms[metricsPrefix+"component_flows"] = l.componentFlows.Snapshot()
	return m
}

// ProgressSnapshot is the /progress payload.
type ProgressSnapshot struct {
	Schema int `json:"schema"`
	// SimSeconds is the engine's virtual time in seconds.
	SimSeconds float64 `json:"sim_seconds"`
	// WallSeconds is wall time from the hook's creation (in the CLI,
	// process start) to the publish being served.
	WallSeconds float64 `json:"wall_seconds"`
	Events      int64   `json:"events"`
	// EventsPerSec is measured between the publishes two successive
	// scrapes were served; the first scrape, a scrape served the same
	// publish again and one after a new engine took over fall back to
	// Events / WallSeconds.
	EventsPerSec float64 `json:"events_per_sec"`
	ActiveFlows  int     `json:"active_flows"`
	Finished     int     `json:"finished_flows"`
	Batches      int64   `json:"batches"`
	// BatchComponents is the latest reallocation batch's width.
	BatchComponents int `json:"batch_components"`
}

// Progress asks the engine for a fresh copy and encodes it. A nil hook
// serves the zero document.
func (l *Live) Progress() ProgressSnapshot {
	if l == nil {
		return ProgressSnapshot{Schema: SchemaVersion}
	}
	p, stats := l.latest()
	m := metricsOf(stats)
	p.Schema = SchemaVersion
	p.Events, p.Batches = m.Counters[metricsPrefix+"events"], m.Counters[metricsPrefix+"batches"]
	if p.WallSeconds > 0 {
		p.EventsPerSec = float64(p.Events) / p.WallSeconds
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if dw, de := p.WallSeconds-l.prevWall, float64(p.Events)-l.prevEvents; l.prevWall > 0 && dw > 0 && de > 0 {
		p.EventsPerSec = de / dw
	}
	l.prevWall, l.prevEvents = p.WallSeconds, float64(p.Events)
	return p
}
