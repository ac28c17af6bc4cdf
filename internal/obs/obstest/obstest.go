// Package obstest holds the scraper the two engines' live-snapshot
// tests share.
package obstest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"numfabric/internal/obs"
)

// Scraper reads /progress and /metrics off obs.Handler, over HTTP, from
// a goroutine of its own while the test's goroutine steps an engine.
type Scraper struct {
	t    testing.TB
	srv  *httptest.Server
	tick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// Start begins scraping live's endpoints in a loop. Each scrape of the
// pair is held to what no view of one counter block may break: events
// and finished_flows never go backwards — within a document, and from
// /progress to the /metrics scraped after it — and active + finished
// is what the schedule has admitted by sim_seconds, which admitted
// brackets (an arrival due exactly then may or may not be in yet).
func Start(t testing.TB, live *obs.Live, admitted func(simSeconds float64) (lo, hi int)) *Scraper {
	s := &Scraper{t: t, srv: httptest.NewServer(obs.Handler(live, nil)),
		tick: make(chan struct{}), stop: make(chan struct{}), done: make(chan struct{})}
	t.Cleanup(s.srv.Close)
	go func() {
		defer close(s.done)
		var last obs.ProgressSnapshot
		for n := 0; ; n++ {
			p, m := s.Scrape()
			if p.Events < last.Events || p.Finished < last.Finished {
				t.Errorf("scrape %d: /progress went backwards: %+v after %+v", n, p, last)
			}
			if ev := m.Counters["engine.events"]; ev < p.Events {
				t.Errorf("scrape %d: /metrics reports %d events after /progress reported %d", n, ev, p.Events)
			}
			if lo, hi := admitted(p.SimSeconds); p.ActiveFlows+p.Finished < lo || p.ActiveFlows+p.Finished > hi {
				t.Errorf("scrape %d: %d active + %d finished at t=%g, the schedule has admitted %d..%d",
					n, p.ActiveFlows, p.Finished, p.SimSeconds, lo, hi)
			}
			last = p
			last.Events = m.Counters["engine.events"]
			select {
			case s.tick <- struct{}{}:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Tick blocks until the scraper has finished one more scrape, so an
// engine stepped between Ticks is scraped at many points of its run
// however fast it is.
func (s *Scraper) Tick() { <-s.tick }

// Stop ends the loop and waits for the scrape in flight.
func (s *Scraper) Stop() {
	close(s.stop)
	<-s.done
}

// Scrape reads both endpoints once, /progress first.
func (s *Scraper) Scrape() (p obs.ProgressSnapshot, m obs.Metrics) {
	s.get("/progress", &p)
	s.get("/metrics", &m)
	return p, m
}

// Exact scrapes once and fails unless both documents are stats — the
// engine's Stats() at virtual time simSeconds — field for field: what
// /metrics serves is the encoding of that value, one key per field
// (its per-phase array one per phase), and /progress agrees. It is the
// check that an exit the engine took published without being asked.
func (s *Scraper) Exact(exit string, stats any, simSeconds float64) (obs.ProgressSnapshot, obs.Metrics) {
	s.t.Helper()
	p, m := s.Scrape()
	ref := obs.NewLive()
	ref.Publish(0, 0, 0, stats)
	want := ref.Metrics()
	if !reflect.DeepEqual(m.Counters, want.Counters) || !reflect.DeepEqual(m.Gauges, want.Gauges) {
		s.t.Errorf("after %s, /metrics:\n%v %v\nStats():\n%v %v", exit, m.Counters, m.Gauges, want.Counters, want.Gauges)
	}
	if n, fields := len(m.Counters)+len(m.Gauges), reflect.TypeOf(stats).NumField()-1+int(obs.PhaseCount); n != fields {
		s.t.Errorf("after %s, /metrics serves %d keys, Stats has %d fields and phases", exit, n, fields)
	}
	if p.Events != want.Counters["engine.events"] || p.Batches != want.Counters["engine.batches"] || p.SimSeconds != simSeconds {
		s.t.Errorf("after %s at t=%g, /progress %+v disagrees with Stats() %+v", exit, simSeconds, p, stats)
	}
	return p, m
}

func (s *Scraper) get(path string, v any) {
	resp, err := http.Get(s.srv.URL + path)
	if err != nil {
		s.t.Errorf("GET %s: %v", path, err)
		return
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		s.t.Errorf("GET %s: %v", path, err)
	}
}
