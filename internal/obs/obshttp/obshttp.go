// Package obshttp serves the obs hooks over HTTP: the debug endpoint
// behind numfabric -debug-addr (pprof, expvar, /metrics, /progress,
// /flows, /links). Only numfabric and obstest import it, so the
// engines, the examples and the benchmark plays do not link a server
// they never start (TestOnlyServerLinksHTTP).
package obshttp

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"numfabric/internal/obs"
)

// index is the body of "/".
const index = "numfabric debug endpoint\n\n" +
	"  /metrics      engine counters and histograms (JSON)\n" +
	"  /progress     live engine position (JSON)\n" +
	"  /flows        slow-flow attribution (JSON)\n" +
	"  /links        per-link utilization (JSON)\n" +
	"  /debug/pprof/ runtime profiles\n" +
	"  /debug/vars   expvar\n"

// Handler builds the debug mux: net/http/pprof under /debug/pprof/,
// expvar under /debug/vars, and four JSON endpoints that each ask the
// live hook for a fresh publish and encode the copy the engine stored:
// /metrics and /progress the live hook's, /flows (slow-flow
// attribution) and /links (per-link utilization) the tracer's
// (obs.FlowTracer.Publish). Either argument may be nil; its endpoints
// then serve empty documents, as a tracer does before its first publish.
func Handler(live *obs.Live, ft *obs.FlowTracer) http.Handler {
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
		if flows, _, ok := ft.Published(live); ok {
			return flows
		}
		return struct{}{}
	})
	serve("/links", func() any {
		if _, links, ok := ft.Published(live); ok {
			return links
		}
		return []obs.LinkLine{}
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, index)
	})
	return mux
}

// Serve serves the debug endpoint on ln until ln closes. The caller
// opens the listener, so an address that cannot be listened on is
// reported before anything else starts, and the bound port of a ":0"
// address can be read off ln.
func Serve(ln net.Listener, live *obs.Live, ft *obs.FlowTracer) {
	go (&http.Server{Handler: Handler(live, ft)}).Serve(ln)
}
