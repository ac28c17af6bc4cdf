package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeTrace parses Chrome-trace JSON back into the generic shape
// external viewers consume.
func decodeTrace(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, data)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatalf("trace has no traceEvents array: %s", data)
	}
	return doc
}

func TestTracerChromeTraceSchema(t *testing.T) {
	tr := NewTracer()
	tr.EnsureTracks(3)
	tr.SetTrackName(0, "engine")
	tr.SetTrackName(1, "worker 0")
	tr.SetTrackName(2, "worker 1")

	s := tr.Clock()
	tr.Span(1, "solve", s, 12)
	tr.Span(2, "solve", s, 7)
	tr.Span(0, "batch", s, 2)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, buf.Bytes())
	events := doc["traceEvents"].([]any)

	var complete, meta int
	var sawSolveArg bool
	named := map[string]int{}
	for _, raw := range events {
		ev := raw.(map[string]any)
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event missing name/ph: %v", ev)
		}
		switch ph {
		case "X":
			complete++
			named[name]++
			ts, tsOK := ev["ts"].(float64)
			if !tsOK || ts < 0 {
				t.Fatalf("complete event with bad ts: %v", ev)
			}
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				t.Fatalf("complete event with negative dur: %v", ev)
			}
			if name == "solve" {
				args, _ := ev["args"].(map[string]any)
				if flows, ok := args["flows"].(float64); ok && flows > 0 {
					sawSolveArg = true
				}
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected ph %q", ph)
		}
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if meta != 3 {
		t.Errorf("thread_name metadata events = %d, want 3", meta)
	}
	if !sawSolveArg {
		t.Error("solve spans should carry a flows arg")
	}
	if tr.TotalSpans() != 3 || named["solve"] != 2 || named["batch"] != 1 {
		t.Errorf("span accounting: total=%d, written %v", tr.TotalSpans(), named)
	}
}

func TestTracerCapAndDrops(t *testing.T) {
	tr := NewTracer()
	tr.MaxSpans = 4
	tr.EnsureTracks(1)
	for i := 0; i < 10; i++ {
		tr.Span(0, "solve", tr.Clock(), 1)
	}
	if tr.TotalSpans() != 4 {
		t.Errorf("retained = %d, want 4", tr.TotalSpans())
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
	// Out-of-range tracks drop, never panic.
	tr.Span(5, "solve", tr.Clock(), 1)
	tr.Span(-1, "solve", tr.Clock(), 1)
	if tr.Dropped() != 8 {
		t.Errorf("dropped = %d, want 8", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, buf.Bytes())
	found := false
	for _, raw := range doc["traceEvents"].([]any) {
		ev := raw.(map[string]any)
		if ev["name"] == "dropped_spans" {
			found = true
		}
	}
	if !found {
		t.Error("trace with drops should carry a dropped_spans marker")
	}
}
