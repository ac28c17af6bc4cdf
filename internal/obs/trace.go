package obs

import (
	"encoding/json"
	"io"
)

// span is one completed timeline interval on a track.
type span struct {
	start int64 // ns since process start
	dur   int64 // ns
	arg   int64 // the track's payload (components, flows)
}

// tracks describes the two timeline rows the leap engine writes from
// its one event-loop goroutine, so appends and drops need no lock:
// track 0 the reallocation batches, track 1 the component solves
// inside them. Each row has its thread name, the name of every span on
// it and the JSON key the span's integer payload is exported under.
var tracks = [2]struct{ thread, span, arg string }{
	{"engine", "batch", "components"},
	{"solver", "solve", "flows"},
}

// maxSpans bounds each track's retained spans, and so the tracer's
// memory; past it a span is counted as dropped.
const maxSpans = 1 << 19

// Tracer accumulates timeline spans for Chrome-trace export: in
// chrome://tracing or ui.perfetto.dev each reallocation batch renders
// above the component solves it ran. Clock and Span are inlinable nil
// checks, callable unguarded on a nil *Tracer.
type Tracer struct {
	spans [len(tracks)][]span
	drops int64 // Dropped reads it after the run
}

// NewTracer returns an empty tracer. Successive runs sharing a tracer
// land on one timeline.
func NewTracer() *Tracer { return &Tracer{} }

// Clock returns the tracer timebase's current reading; pass it back
// as a span's start. A nil tracer returns 0 without reading the clock.
func (t *Tracer) Clock() int64 {
	if t == nil {
		return 0
	}
	return Now()
}

// Span records one interval [start, now) on track ti (0 batches, 1
// solves) with its integer payload. A Tracer takes one writer at a
// time (the engine's event loop, for both its tracks); spans past the
// per-track cap are counted as drops.
func (t *Tracer) Span(ti int, start, arg int64) {
	if t != nil {
		t.span(ti, start, arg)
	}
}

func (t *Tracer) span(ti int, start, arg int64) {
	if len(t.spans[ti]) >= maxSpans {
		t.drops++
		return
	}
	t.spans[ti] = append(t.spans[ti], span{start: start, dur: Now() - start, arg: arg})
}

// TotalSpans returns how many spans are retained across all tracks.
func (t *Tracer) TotalSpans() int {
	if t == nil {
		return 0
	}
	return len(t.spans[0]) + len(t.spans[1])
}

// Dropped returns how many spans were discarded at the per-track cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.drops
}

// traceEvent is one Chrome-trace event. ph "X" is a complete span
// (ts + dur); ph "M" is metadata (thread names).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the exported JSON object format.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// Write exports the accumulated spans as Chrome-trace JSON.
func (t *Tracer) Write(w io.Writer) error {
	out := traceFile{DisplayTimeUnit: "ms"}
	for ti, tr := range tracks {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: ti,
			Args: map[string]any{"name": tr.thread},
		})
	}
	for ti, tr := range tracks {
		for _, s := range t.spans[ti] {
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: tr.span, Ph: "X", Pid: 1, Tid: ti,
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
				Args: map[string]any{tr.arg: s.arg},
			})
		}
	}
	if n := t.drops; n > 0 {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "dropped_spans", Ph: "M", Pid: 1, Tid: 0,
			Args: map[string]any{"count": n},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
