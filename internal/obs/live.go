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
// flows per solve — are histograms the hook owns (Batch, Solve). Like
// Stats they have one writer, the engine goroutine, and a publish
// copies their snapshots next to the Stats value, so /metrics serves
// counters and histograms of one and the same event.
type Live struct {
	want  atomic.Bool   // a scraper is waiting for the next event
	fresh chan struct{} // one token per publish no scraper has taken
	born  int64         // Now() at NewLive: the origin of wall_seconds

	// Engine goroutine only, until published: the latest batch's width,
	// and the histograms named by histNames.
	lastBatch int
	hists     [2]*Histogram

	mu    sync.Mutex
	pos   ProgressSnapshot     // the published position; its Stats-derived keys are filled per scrape
	stats any                  // the Stats value published with it (a leap.Stats or a fluid.Stats)
	snaps [2]HistogramSnapshot // and the histograms as they stood
	// The publish the previous /progress scrape was served, for the
	// rate between scrapes.
	prevWall, prevEvents float64
}

// histNames are Live.hists' keys in /metrics: components per batch,
// flows per solve.
var histNames = [2]string{metricsPrefix + "batch_components", metricsPrefix + "component_flows"}

// NewLive returns a hook no engine has published to yet.
func NewLive() *Live {
	return &Live{fresh: make(chan struct{}, 1), born: Now(), hists: [2]*Histogram{NewHistogram(), NewHistogram()}}
}

// Due reports whether the engine should publish now: a scraper has
// asked, or the run is ending (final). An inlinable nil check and one
// atomic load — all a detached or unscraped hook costs per event.
func (l *Live) Due(final bool) bool { return l != nil && (final || l.want.Load()) }

// Batch observes one reallocation batch's component count.
func (l *Live) Batch(components int) {
	if l != nil {
		l.lastBatch = components
		l.hists[0].Observe(float64(components))
	}
}

// Solve observes one allocator solve's flow count.
func (l *Live) Solve(flows int) {
	if l != nil {
		l.hists[1].Observe(float64(flows))
	}
}

// Publish stores the engine's position — virtual time, live flows,
// flows finished so far — its Stats value and the histograms'
// snapshots as the copy scrapers read, and wakes a waiting one. Engine
// goroutine only, when Due.
func (l *Live) Publish(simSeconds float64, active, finished int, stats any) {
	if l == nil {
		return
	}
	// Cleared first: a request raised from here on is answered by the
	// next event, not lost.
	l.want.Store(false)
	snaps := [2]HistogramSnapshot{l.hists[0].Snapshot(), l.hists[1].Snapshot()}
	l.mu.Lock()
	l.pos = ProgressSnapshot{Schema: SchemaVersion, SimSeconds: simSeconds, WallSeconds: float64(Now()-l.born) / 1e9,
		ActiveFlows: active, Finished: finished, BatchComponents: l.lastBatch}
	l.stats, l.snaps = stats, snaps
	l.mu.Unlock()
	select {
	case l.fresh <- struct{}{}:
	default:
	}
}

// ask raises a request and waits up to liveWait for the engine to
// answer it after its next event; an idle or finished engine leaves
// what it published last. A nil hook returns at once.
func (l *Live) ask() {
	if l == nil {
		return
	}
	select {
	case <-l.fresh: // a publish nobody was waiting for
	default:
	}
	l.want.Store(true)
	select {
	case <-l.fresh:
	case <-time.After(liveWait):
	}
}

// Metrics is the /metrics payload: the publishing engine's Stats
// fields, each under "engine." + its json tag — integers as counters,
// floats as gauges, PhaseNanos as one counter per phase name — plus the
// hook's two histograms as that publish copied them.
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
	l.ask()
	l.mu.Lock()
	defer l.mu.Unlock()
	m := metricsOf(l.stats)
	for i, name := range histNames {
		m.Histograms[name] = l.snaps[i]
	}
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
	// scrapes were served, or else (a first scrape, the same publish
	// again, a new engine) is Events / WallSeconds.
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
	l.ask()
	l.mu.Lock()
	defer l.mu.Unlock()
	p, m := l.pos, metricsOf(l.stats)
	p.Schema = SchemaVersion
	p.Events, p.Batches = m.Counters[metricsPrefix+"events"], m.Counters[metricsPrefix+"batches"]
	if p.WallSeconds > 0 {
		p.EventsPerSec = float64(p.Events) / p.WallSeconds
	}
	if dw, de := p.WallSeconds-l.prevWall, float64(p.Events)-l.prevEvents; l.prevWall > 0 && dw > 0 && de > 0 {
		p.EventsPerSec = de / dw
	}
	l.prevWall, l.prevEvents = p.WallSeconds, float64(p.Events)
	return p
}
