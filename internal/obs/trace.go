package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// span is one completed timeline interval on a track.
type span struct {
	name  string
	start int64 // ns since process start
	dur   int64 // ns
	arg   int64 // name-dependent payload (flows, components, ops)
}

// track is one timeline row. The leap engine writes two from its one
// event-loop goroutine — track 0 the reallocation batches, track 1 the
// component solves inside them — so appends and drops need no lock.
type track struct {
	name  string
	spans []span
}

// Tracer accumulates timeline spans for Chrome-trace export: in
// chrome://tracing or ui.perfetto.dev each reallocation batch renders
// above the component solves it ran. Past MaxSpans per track a span is
// counted as dropped instead. Clock and Span are inlinable nil checks,
// callable unguarded on a nil *Tracer.
type Tracer struct {
	// MaxSpans bounds each track's retained spans (default 1 << 19).
	MaxSpans int

	tracks []track
	drops  int64 // Dropped reads it after the run
}

// NewTracer returns an empty tracer. Tracks are created by
// EnsureTracks (the leap engine asks for its two at construction).
func NewTracer() *Tracer { return &Tracer{} }

// EnsureTracks grows the track table to n tracks. Existing tracks
// (and their spans) are preserved, so successive runs sharing a
// tracer land on one timeline.
func (t *Tracer) EnsureTracks(n int) {
	if t == nil {
		return
	}
	for len(t.tracks) < n {
		t.tracks = append(t.tracks, track{})
	}
}

// SetTrackName names a track for the exported timeline.
func (t *Tracer) SetTrackName(i int, name string) {
	if t == nil || i < 0 || i >= len(t.tracks) {
		return
	}
	t.tracks[i].name = name
}

// Clock returns the tracer timebase's current reading; pass it back
// as a span's start. A nil tracer returns 0 without reading the clock.
func (t *Tracer) Clock() int64 {
	if t == nil {
		return 0
	}
	return Now()
}

// Span records one interval [start, now) on track ti with a
// name-dependent integer payload. A Tracer takes one writer at a time
// (the engine's event loop, for both its tracks); spans to unknown
// tracks or past the cap are counted as drops.
func (t *Tracer) Span(ti int, name string, start, arg int64) {
	if t != nil {
		t.span(ti, name, start, arg)
	}
}

func (t *Tracer) span(ti int, name string, start, arg int64) {
	if ti < 0 || ti >= len(t.tracks) {
		t.drops++
		return
	}
	maxSpans := t.MaxSpans
	if maxSpans <= 0 {
		maxSpans = 1 << 19
	}
	tr := &t.tracks[ti]
	if len(tr.spans) >= maxSpans {
		t.drops++
		return
	}
	tr.spans = append(tr.spans, span{name: name, start: start, dur: Now() - start, arg: arg})
}

// TotalSpans returns how many spans are retained across all tracks.
func (t *Tracer) TotalSpans() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.tracks {
		n += len(t.tracks[i].spans)
	}
	return n
}

// Dropped returns how many spans were discarded (unknown track or
// per-track cap reached).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.drops
}

// argKeys maps span names to the JSON key their integer payload is
// exported under.
var argKeys = map[string]string{"solve": "flows", "batch": "components"}

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
	for ti := range t.tracks {
		tr := &t.tracks[ti]
		name := tr.name
		if name == "" {
			name = fmt.Sprintf("track %d", ti)
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: ti,
			Args: map[string]any{"name": name},
		})
	}
	for ti := range t.tracks {
		for _, s := range t.tracks[ti].spans {
			ev := traceEvent{
				Name: s.name, Ph: "X", Pid: 1, Tid: ti,
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			}
			if key := argKeys[s.name]; key != "" {
				ev.Args = map[string]any{key: s.arg}
			}
			out.TraceEvents = append(out.TraceEvents, ev)
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
