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

// TestTracerChromeTraceSchema: the export names the leap engine's two
// tracks, writes each span under its track's span name with the
// payload under its track's arg key, and nothing else.
func TestTracerChromeTraceSchema(t *testing.T) {
	tr := NewTracer()
	s := tr.Clock()
	tr.Span(1, s, 12)
	tr.Span(1, s, 7)
	tr.Span(0, s, 2)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, buf.Bytes())
	events := doc["traceEvents"].([]any)

	var complete int
	var sawSolveArg, sawBatchArg bool
	named := map[string]int{}
	threads := map[float64]string{}
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
			args, _ := ev["args"].(map[string]any)
			tid, _ := ev["tid"].(float64)
			if flows, ok := args["flows"].(float64); ok && flows > 0 && name == "solve" && tid == 1 {
				sawSolveArg = true
			}
			if comps, ok := args["components"].(float64); ok && comps == 2 && name == "batch" && tid == 0 {
				sawBatchArg = true
			}
		case "M":
			args, _ := ev["args"].(map[string]any)
			tid, _ := ev["tid"].(float64)
			threads[tid], _ = args["name"].(string)
		default:
			t.Fatalf("unexpected ph %q", ph)
		}
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if len(threads) != 2 || threads[0] != "engine" || threads[1] != "solver" {
		t.Errorf("thread names %v, want engine on 0 and solver on 1", threads)
	}
	if !sawSolveArg || !sawBatchArg {
		t.Errorf("solve spans on track 1 should carry a flows arg (%v), batch spans on track 0 a components arg (%v)",
			sawSolveArg, sawBatchArg)
	}
	if tr.TotalSpans() != 3 || named["solve"] != 2 || named["batch"] != 1 {
		t.Errorf("span accounting: total=%d, written %v", tr.TotalSpans(), named)
	}
}

// TestTracerCapAndDrops: a track holds maxSpans spans; past that a span
// is counted as dropped, on its own track only, and the export says so.
func TestTracerCapAndDrops(t *testing.T) {
	tr := NewTracer()
	tr.spans[0] = make([]span, maxSpans-4)
	for i := 0; i < 10; i++ {
		tr.Span(0, tr.Clock(), 1)
	}
	tr.Span(1, tr.Clock(), 1)
	if tr.TotalSpans() != maxSpans+1 {
		t.Errorf("retained = %d, want %d", tr.TotalSpans(), maxSpans+1)
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
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
