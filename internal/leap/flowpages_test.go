package leap

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
	"numfabric/internal/obs/obshttp"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

// faultedFatTreePlay loads a k=4 fat-tree with 2,000 web-search flows
// and a fault every 200 µs of their span — a random link down for
// 100 µs — traced under the LinkLabel namer, which reads the
// capacities the faults write.
func faultedFatTreePlay(hooks obs.Hooks) *Engine {
	ft := fluid.NewFatTree(4, 10e9)
	hooks.FlowTrace.SetLinkName(ft.LinkLabel)
	e := NewEngine(ft.Net, Config{Obs: hooks})
	rng := sim.NewRNG(37)
	gen := workload.NewPoisson(workload.PoissonConfig{
		Hosts: ft.Hosts(), HostLink: sim.BitRate(ft.Rate), Load: 0.5,
		CDF: workload.WebSearch(), Duration: sim.Duration(sim.Forever / 2), MaxFlows: 2000,
	}, rng)
	last := 0.0
	for a, ok := gen.Next(); ok; a, ok = gen.Next() {
		path := ft.Route(a.Src, a.Dst, rng.Intn(ft.K*ft.K/4))
		e.AddFlow(path, core.FCTMin(a.Size, core.FCTEpsilon), a.Size, a.At.Seconds())
		last = a.At.Seconds()
	}
	for at := 0.0; at < last; at += 200e-6 {
		l := rng.Intn(ft.Net.Links())
		e.FailLink(l, at)
		e.RecoverLink(l, at+100e-6)
	}
	return e
}

// TestFlowEndpointsScrapedDuringFaultedPlay scrapes /flows and /links
// through obshttp.Handler, each from a goroutine of its own, while
// faultedFatTreePlay runs; with -race it fails for any link label or
// snapshot formatted off the engine goroutine, where it races the
// faults' SetCapacity. Every /flows body must describe one publish:
// the listed flows and the tail are counted off the summary's records.
func TestFlowEndpointsScrapedDuringFaultedPlay(t *testing.T) {
	tracer := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0.05, SlowestK: 16})
	live := obs.NewLive()
	e := faultedFatTreePlay(obs.Hooks{Live: live, FlowTrace: tracer})
	srv := httptest.NewServer(obshttp.Handler(live, tracer))
	defer srv.Close()

	var (
		wg      sync.WaitGroup
		started sync.WaitGroup
		midPlay int // /flows bodies served with flows still active
		stop    = make(chan struct{})
	)
	scrape := func(path string, check func(body []byte)) {
		defer wg.Done()
		for n := 0; ; n++ {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			check(body)
			if n == 0 {
				started.Done()
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}
	wg.Add(2)
	started.Add(2)
	go scrape("/flows", func(body []byte) {
		var s obs.FlowsSnapshot
		if err := json.Unmarshal(body, &s); err != nil {
			t.Errorf("/flows: %v", err)
			return
		}
		n := s.Kept + s.Reservoir
		if len(s.Flows) != min(50, n) {
			t.Errorf("/flows lists %d flows of %d kept + %d reservoir", len(s.Flows), s.Kept, s.Reservoir)
		}
		if want := max(1, int(math.Ceil(0.01*float64(n)))); n > 0 && s.TailFlows != want {
			t.Errorf("/flows tail of %d flows, want %d of %d kept + %d reservoir", s.TailFlows, want, s.Kept, s.Reservoir)
		}
		if s.Active > 0 {
			midPlay++
		}
	})
	go scrape("/links", func(body []byte) {
		var links []obs.LinkLine
		if err := json.Unmarshal(body, &links); err != nil {
			t.Errorf("/links: %v", err)
		}
	})
	started.Wait()
	e.Run(math.Inf(1))
	close(stop)
	wg.Wait()

	if s := e.Stats(); s.Stranded == 0 {
		t.Errorf("no fault stranded a flow: %+v", s)
	}
	if midPlay == 0 {
		t.Error("no /flows body was served while flows were active")
	}
	t.Logf("%d /flows bodies served mid-play", midPlay)
}

// TestFlowTraceDescribesTheLastPlay: a tracer handed to two engines in
// turn describes the second play alone — two identical plays export
// exactly what one does, records, counters and link integrals alike.
func TestFlowTraceDescribesTheLastPlay(t *testing.T) {
	export := func(plays int) []byte {
		tracer := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0.2, SlowestK: 8})
		for range plays {
			faultedFatTreePlay(obs.Hooks{FlowTrace: tracer}).Run(math.Inf(1))
		}
		var b bytes.Buffer
		if err := tracer.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	one, two := export(1), export(2)
	if !bytes.Equal(one, two) {
		t.Errorf("two plays on one tracer export %d bytes, one play %d; want the same bytes", len(two), len(one))
	}
}
