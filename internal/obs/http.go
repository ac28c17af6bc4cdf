package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler builds the debug mux: net/http/pprof under /debug/pprof/,
// expvar under /debug/vars, /metrics and /progress encoded from the
// live hook's one copy (each scrape asks the engine for a fresh one),
// and — off the FlowTracer — the slow-flow attribution at /flows and
// per-link utilization at /links, both snapshotted under the tracer's
// lock. Either argument may be nil; its endpoints then serve empty
// documents.
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
	serve("/flows", func() any {
		if ft == nil {
			return struct{}{}
		}
		return ft.FlowsSnapshotTop(flowsEndpointTop, flowsEndpointFrac)
	})
	serve("/links", func() any {
		out := []LinkLine{}
		if ft != nil {
			for _, ls := range ft.LinksSnapshot() {
				out = append(out, LinkLine{Type: "link", Name: ft.LinkNameOrIndex(ls.Link), LinkSnapshot: ls})
			}
		}
		return out
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

// Serve serves the debug endpoint on ln until ln closes. The caller
// opens the listener, so an address that cannot be listened on is
// reported before anything else starts, and the bound port of a ":0"
// address can be read off ln.
func Serve(ln net.Listener, live *Live, ft *FlowTracer) {
	go (&http.Server{Handler: Handler(live, ft)}).Serve(ln)
}
