// Package obs is the engine-wide observability layer: a phase
// profiler for the event loops, Chrome-trace export of the leap
// engine's batches and component solves, a flow-lifecycle tracer, the
// live snapshot an engine publishes on request, and a debug HTTP
// endpoint (pprof, expvar, /metrics, /progress, /flows, /links).
//
// Every hook has one writer, the engine goroutine, and no lock on its
// path. Other goroutines read only what the engine published — on a
// scrape's request (Live.Due) and at a run's end: its Stats value and
// histograms into Live (/metrics, /progress), the flow tracer's pages
// into the tracer (/flows, /links). The Stats json tags are the one
// naming table, SchemaVersion the stamp on every document another
// program reads back.
//
// This package owns the nil check: every engine-facing method is a
// nil-check wrapper the compiler inlines (`make obs-inline`), so an
// engine calls its Config.Obs hooks unguarded and a detached hook costs
// its site one branch. Attached, on a 100k-flow leapfct play (`make
// hook-price` on a shared 2-vCPU host, medians of three sessions of five
// counts): the sampled profiler costs +0–10 %, the 1 % flow tracer
// +22–33 %, both, what numfabric -experiment leapfct attaches, +21–35 %.
// Live costs an event one atomic load.
package obs

import "time"

// epoch anchors the package's monotonic clock: every timestamp —
// profiler laps, trace spans, publish wall times — is nanoseconds
// since process start, so spans from successive runs in one process
// land on one timeline.
var epoch = time.Now()

// Now returns the monotonic clock reading in nanoseconds since
// process start.
func Now() int64 { return int64(time.Since(epoch)) }

// Hooks bundles the observability hooks an engine accepts. Every
// field is optional: a nil hook's engine-facing methods do nothing, so
// the zero Hooks is fully detached.
type Hooks struct {
	// Profiler accumulates wall time per event-loop phase.
	Profiler *PhaseProfiler
	// Tracer records timeline spans (reallocation batches, component
	// solves) for Chrome-trace export.
	Tracer *Tracer
	// Live receives the engine's position and Stats value when a scrape
	// asks and when a run ends, plus batch-width and solve-size
	// distributions.
	Live *Live
	// FlowTrace records sampled per-flow lifecycles and per-link
	// utilization series.
	FlowTrace *FlowTracer
}
