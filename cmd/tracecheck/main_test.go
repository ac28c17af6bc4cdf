package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"numfabric/internal/obs"
)

// validTrace is a real export: one batch of two solves on the leap
// engine's two named tracks.
func validTrace(t *testing.T) []byte {
	t.Helper()
	tr := obs.NewTracer()
	batch := tr.Clock()
	for i := 0; i < 2; i++ {
		tr.Span(1, tr.Clock(), 3)
	}
	tr.Span(0, batch, 2)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckTrace: hostile and degenerate trace files get a defined
// error naming what is wrong — never a panic — and a real export
// passes.
func TestCheckTrace(t *testing.T) {
	valid := validTrace(t)
	if summary, err := checkTrace(valid); err != nil || !strings.Contains(summary, "2 solve spans, 1 batch spans, 2 named tracks") {
		t.Fatalf("real export: %q, %v", summary, err)
	}
	for _, c := range []struct{ name, in, want string }{
		{"empty file", "", "unexpected end of JSON input"},
		{"truncated", string(valid[:len(valid)/2]), "unexpected end of JSON input"},
		{"not an object", `[1,2,3]`, "cannot unmarshal"},
		{"null events", `{"traceEvents": null}`, "no trace events"},
		{"span without ts", `{"traceEvents":[{"name":"solve","ph":"X","dur":1}]}`, "without valid ts"},
		{"span without dur", `{"traceEvents":[{"name":"solve","ph":"X","ts":1}]}`, "without valid dur"},
		{"negative ts", `{"traceEvents":[{"name":"solve","ph":"X","ts":-1,"dur":1}]}`, "without valid ts"},
		{"event without ph", `{"traceEvents":[{"name":"solve"}]}`, "missing ph"},
		{"event without name", `{"traceEvents":[{"ph":"M"}]}`, "missing name"},
		{"batch without components", `{"traceEvents":[{"name":"batch","ph":"X","ts":0,"dur":1}]}`, "missing components arg"},
		{"components of the wrong type", `{"traceEvents":[{"name":"batch","ph":"X","ts":0,"dur":1,"args":{"components":"2"}}]}`, "missing components arg"},
		{"overlapping spans", `{"traceEvents":[{"name":"solve","ph":"X","ts":0,"dur":5},{"name":"solve","ph":"X","ts":1,"dur":1}]}`, "overlaps previous span"},
		{"solves unaccounted for", `{"traceEvents":[{"name":"batch","ph":"X","ts":0,"dur":9,"args":{"components":3}},{"name":"solve","ph":"X","tid":1,"ts":0,"dur":1}]}`, "report 3 components, but 1 solve spans"},
		{"ts of the wrong type", `{"traceEvents":[{"name":"solve","ph":"X","ts":"soon"}]}`, "cannot unmarshal"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := checkTrace([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestCheckMetrics: a /metrics body of any schema version but this
// build's — an absent stamp included — is refused by an error naming
// both versions.
func TestCheckMetrics(t *testing.T) {
	live := obs.NewLive()
	live.Publish(0, 0, 0, struct {
		Events int `json:"events"`
	}{3})
	real, err := json.Marshal(live.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if summary, err := checkMetrics(real); err != nil || !strings.HasPrefix(summary, "1 counters") {
		t.Fatalf("real /metrics body: %q, %v", summary, err)
	}
	// A literal stamp, not obs.SchemaVersion: bumping the constant fails
	// here until someone has decided what tracecheck does with the
	// snapshots already scraped.
	if _, err := checkMetrics([]byte(`{"schema":1,"counters":{"engine.events":3}}`)); err != nil {
		t.Errorf("a schema-1 /metrics body: %v", err)
	}
	both := func(got int) string {
		return fmt.Sprintf("schema %d, this reader understands schema %d", got, obs.SchemaVersion)
	}
	next := obs.SchemaVersion + 1
	for _, c := range []struct{ name, in, want string }{
		{"empty file", "", "unexpected end of JSON input"},
		{"no schema stamp", `{"counters":{"engine.events":1}}`, both(0)},
		{"a later schema", fmt.Sprintf(`{"schema":%d,"counters":{"engine.events":1}}`, next), both(next)},
		{"schema of the wrong type", `{"schema":"1","counters":{"engine.events":1}}`, "cannot unmarshal"},
		{"no counters", fmt.Sprintf(`{"schema":%d,"counters":{}}`, obs.SchemaVersion), "no counters"},
		{"nothing published yet", `{}`, both(0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := checkMetrics([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want one containing %q", err, c.want)
			}
		})
	}
}
