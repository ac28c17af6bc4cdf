package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// Handler builds the debug mux: net/http/pprof under /debug/pprof/,
// expvar under /debug/vars, and four JSON endpoints that each ask the
// live hook for a fresh publish and encode the copy the engine stored:
// /metrics and /progress the live hook's, /flows (slow-flow
// attribution) and /links (per-link utilization) the tracer's
// (FlowTracer.Publish). Either argument may be nil; its endpoints then
// serve empty documents, as a tracer does before its first publish.
func Handler(live *Live, ft *FlowTracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	serve := func(path string, doc func() any) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(doc())
		})
	}
	serve("/metrics", func() any { return live.Metrics() })
	serve("/progress", func() any { return live.Progress() })
	pages := func() *flowPages {
		if ft == nil {
			return nil
		}
		live.ask()
		return ft.pages.Load()
	}
	serve("/flows", func() any {
		if p := pages(); p != nil {
			return p.flows
		}
		return struct{}{}
	})
	serve("/links", func() any {
		if p := pages(); p != nil {
			return p.links
		}
		return []LinkLine{}
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "numfabric debug endpoint\n\n"+
			"  /metrics      engine counters and histograms (JSON)\n"+
			"  /progress     live engine position (JSON)\n"+
			"  /flows        slow-flow attribution (JSON)\n"+
			"  /links        per-link utilization (JSON)\n"+
			"  /debug/pprof/ runtime profiles\n"+
			"  /debug/vars   expvar\n")
	})
	return mux
}

// flowsEndpointTop bounds the flows listed by /flows;
// flowsEndpointFrac is the slowest fraction its attribution covers.
const flowsEndpointTop, flowsEndpointFrac = 50, 0.01

// flowPages are the /flows body and the /links lines of one publish.
// They share no storage the engine writes later: kept records are final,
// the reservoir's are copies (Records), and the rest is built for them.
type flowPages struct {
	flows FlowsSnapshot
	links []LinkLine
}

// published holds the pages a FlowTracer published last.
type published struct{ atomic.Pointer[flowPages] }

// Publish stores the tracer's /flows body (FlowsSnapshotTop(50, 0.01))
// and labelled /links lines as the copy those endpoints serve. The
// engine calls it where Live.Due holds, before Live.Publish wakes the
// scraper, so links are labelled where capacities are written. An
// inlinable nil check.
func (t *FlowTracer) Publish() {
	if t != nil {
		t.publish()
	}
}

func (t *FlowTracer) publish() {
	t.pages.Store(&flowPages{t.FlowsSnapshotTop(flowsEndpointTop, flowsEndpointFrac), t.linkLines(t.LinkNameOrIndex)})
}

// Serve serves the debug endpoint on ln until ln closes. The caller
// opens the listener, so an address that cannot be listened on is
// reported before anything else starts, and the bound port of a ":0"
// address can be read off ln.
func Serve(ln net.Listener, live *Live, ft *FlowTracer) {
	go (&http.Server{Handler: Handler(live, ft)}).Serve(ln)
}
