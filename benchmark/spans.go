package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one coarse interval around a call into a layer, in
// nanoseconds since the play's exec stamp. Parent indexes the play's
// span list (-1 for a top-level span); spans of one play share its id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Play   int    `json:"play"`
}

// spanRecorder keeps a traced play's spans in memory. A nil recorder
// (the untraced play) runs the work and reads no clock.
type spanRecorder struct {
	t0    time.Time
	spans []span
	open  []int
}

// time runs fn inside a span named name and returns its duration in
// seconds (0 when not recording).
func (r *spanRecorder) time(name string, fn func()) float64 {
	if r == nil {
		fn()
		return 0
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent})
	r.open = append(r.open, id)
	fn()
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = int64(time.Since(r.t0))
	return float64(r.spans[id].End-r.spans[id].Start) / 1e9
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev): one complete event per span,
// one process row per play.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Play, Args: map[string]int{"span": i, "parent": s.Parent},
		}
	}
	data, err := json.MarshalIndent(map[string]any{"traceEvents": events}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
