// Package obs is the engine-wide observability layer: a phase-timing
// profiler for the event loops, Chrome-trace timeline export of the
// leap engine's batches and component solves, a flow-lifecycle tracer,
// the live snapshot an engine publishes on request, and a debug HTTP
// endpoint (net/http/pprof, expvar, /metrics, /progress, /flows,
// /links) for long-running processes.
//
// An engine counts its work in one Stats value and this package keeps
// no second copy: /metrics and /progress are encoded, at scrape time,
// from the Stats value the engine last handed to Live — the Stats
// types' json tags are the one naming table, SchemaVersion the stamp
// on every document another program reads back.
//
// This package owns the nil check. An engine keeps its Config.Obs as
// one Hooks value and calls the hook methods unguarded: every
// engine-facing method — PhaseProfiler.Lap/Arm, Tracer.Clock/Span,
// Live.Due/Batch/Solve, FlowTracer.Admit/Rate/Complete — is a
// nil-check wrapper the compiler inlines (`make obs-inline` fails when
// one stops being inlinable), so a detached hook costs its call site
// one branch and the hot loops stay allocation-free (pinned by the leap
// engine's allocation-guard test and BenchmarkLeapFCT). An engine
// guards a site itself only where it would compute arguments nobody
// but the hook reads. When enabled, a hook costs one monotonic clock
// read per phase boundary or span, a histogram update per batch and
// solve, and — Live, per event — one atomic load: cheap enough to leave
// on for the leapfct experiment and the repository benchmark's traced
// plays.
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
	// Live receives the engine's position and Stats value when a
	// scraper of /metrics or /progress has asked for them and when a run
	// ends, plus the batch-width and solve-size distributions.
	Live *Live
	// FlowTrace records sampled per-flow lifecycles (rate segments,
	// bottleneck links, slowdown attribution) and per-link
	// utilization series.
	FlowTrace *FlowTracer
}
