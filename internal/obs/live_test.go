package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// fakeStats stands in for an engine's Stats type (this package cannot
// import one): an int counter per event, one per batch, a float, and a
// per-phase array.
type fakeStats struct {
	Events     int               `json:"events"`
	Batches    int               `json:"batches"`
	LostSec    float64           `json:"lost_sec"`
	AllocIters int64             `json:"alloc_iters"`
	PhaseNanos [PhaseCount]int64 `json:"phase_ns"`
}

// TestEngineMetricsNames: /metrics names an engine's counters by its
// Stats type's json tags under "engine." — integers as counters,
// floats as gauges, the phase array as one counter per phase — next to
// the hook's two histograms.
func TestEngineMetricsNames(t *testing.T) {
	l := NewLive()
	st := fakeStats{Events: 10, Batches: 3, LostSec: 0.5, AllocIters: 77}
	st.PhaseNanos[PhaseSolve] = 42
	l.Batch(3)
	l.Solve(7)
	l.Publish(1, 2, 3, st)
	m := l.Metrics()
	if m.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", m.Schema, SchemaVersion)
	}
	wantC := map[string]int64{"engine.events": 10, "engine.batches": 3, "engine.alloc_iters": 77}
	for ph := Phase(0); ph < PhaseCount; ph++ {
		wantC["engine.phase_ns."+PhaseName(ph)] = st.PhaseNanos[ph]
	}
	if !reflect.DeepEqual(m.Counters, wantC) {
		t.Errorf("counters = %v, want %v", m.Counters, wantC)
	}
	if !reflect.DeepEqual(m.Gauges, map[string]float64{"engine.lost_sec": 0.5}) {
		t.Errorf("gauges = %v", m.Gauges)
	}
	if h := m.Histograms["engine.batch_components"]; h.Count != 1 || h.Max != 3 {
		t.Errorf("engine.batch_components = %+v", h)
	}
	if h := m.Histograms["engine.component_flows"]; h.Count != 1 || h.Max != 7 {
		t.Errorf("engine.component_flows = %+v", h)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	l := NewLive()
	l.Batch(4)
	l.Publish(0, 0, 0, fakeStats{Events: 123, LostSec: 0.8})
	want := l.Metrics()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	var got Metrics
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("/metrics JSON does not parse: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	if got.Schema != SchemaVersion || got.Counters["engine.events"] != 123 || got.Histograms["engine.batch_components"].Count != 1 {
		t.Fatalf("round-trip content: %+v", got)
	}
}

// TestProgressRates: /progress reports the run average on the first
// scrape and the rate between the publishes two successive scrapes
// were served after that; a scrape served the same publish twice, and
// one after a new engine restarted the count, fall back to the average.
func TestProgressRates(t *testing.T) {
	l := NewLive()
	if p := l.Progress(); p != (ProgressSnapshot{Schema: SchemaVersion}) {
		t.Fatalf("progress before any publish = %+v", p)
	}
	l.Batch(4)
	l.Publish(5, 10, 20, fakeStats{Events: 500, Batches: 9})
	p1 := l.Progress()
	if p1.Events != 500 || p1.SimSeconds != 5 || p1.ActiveFlows != 10 || p1.Finished != 20 ||
		p1.Batches != 9 || p1.BatchComponents != 4 {
		t.Fatalf("progress = %+v", p1)
	}
	if p1.WallSeconds <= 0 || p1.EventsPerSec != 500/p1.WallSeconds {
		t.Fatalf("first scrape: wall %g, rate %g, want the run average", p1.WallSeconds, p1.EventsPerSec)
	}
	if again := l.Progress(); again != p1 {
		t.Errorf("same publish served twice: %+v then %+v", p1, again)
	}
	l.Publish(6, 10, 30, fakeStats{Events: 800})
	p2 := l.Progress()
	if want := 300 / (p2.WallSeconds - p1.WallSeconds); p2.EventsPerSec != want {
		t.Errorf("second scrape: rate %g, want %g (300 events between the two publishes)", p2.EventsPerSec, want)
	}
	l.Publish(0, 1, 0, fakeStats{Events: 7})
	if p3 := l.Progress(); p3.EventsPerSec != 7/p3.WallSeconds {
		t.Errorf("after a new engine: rate %g, want the average %g", p3.EventsPerSec, 7/p3.WallSeconds)
	}
}

// TestConcurrentUpdates runs the publish protocol from both sides at
// once: one goroutine plays the engine — count an event, publish when
// Due — while scrapers read /metrics and /progress. Under -race this
// is the hook's data-race guard; every scraper must see counts that
// never go backwards, position and counters taken together, and the
// run's final publish exactly.
func TestConcurrentUpdates(t *testing.T) {
	l := NewLive()
	const scrapers, scrapesEach = 4, 100
	var wg sync.WaitGroup
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for n := 0; n < scrapesEach; n++ {
				var ev int64
				if n%2 == 0 {
					p := l.Progress()
					if int64(p.Finished) != p.Events {
						t.Errorf("position and counters from different events: %+v", p)
						return
					}
					ev = p.Events
				} else {
					ev = l.Metrics().Counters["engine.events"]
				}
				if ev < last {
					t.Errorf("events went backwards: %d after %d", ev, last)
					return
				}
				last = ev
			}
		}()
	}
	scraped := make(chan struct{})
	go func() { wg.Wait(); close(scraped) }()
	var st fakeStats
	published := 0
	for running := true; running; {
		select {
		case <-scraped:
			running = false
		default:
		}
		st.Events++
		l.Solve(st.Events % 7)
		if l.Due(false) {
			l.Publish(float64(st.Events), 0, st.Events, st)
			published++
		}
	}
	l.Publish(float64(st.Events), 0, st.Events, st)
	if p := l.Progress(); p.Events != int64(st.Events) || p.Finished != st.Events {
		t.Errorf("after the final publish: %+v, want %d events", p, st.Events)
	}
	if got := l.Metrics().Histograms["engine.component_flows"].Count; got != int64(st.Events) {
		t.Errorf("component_flows count = %d, want %d", got, st.Events)
	}
	if published == 0 {
		t.Error("no scrape was answered by a publish on request")
	}
	t.Logf("%d publishes on request over %d events", published, st.Events)
}
