// Command tracecheck validates a Chrome-trace timeline written by
// -trace-out (obs.Tracer.Write): it checks the JSON parses, the
// events carry the fields chrome://tracing and Perfetto require, and
// the spans the leap engine is supposed to emit — component "solve"
// spans and, per reallocation instant, "batch" spans — are actually
// present and consistent: spans on one track must not overlap (each
// track has a single writer), and the per-batch component counts must
// sum to the solve-span count. CI runs it against the smoke run's
// trace so a schema regression fails the build instead of silently
// producing a file the viewers reject.
//
// Usage:
//
//	go run ./cmd/tracecheck [-metrics metrics.json] trace.json
//
// -metrics additionally validates a /metrics snapshot (obs.Metrics): it
// must parse, carry this build's obs.SchemaVersion and contain at least
// one counter. Exit status is 0 when every check passes, 1 otherwise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"numfabric/internal/obs"
)

// traceEvent mirrors the Chrome trace event fields tracecheck cares
// about; unknown fields are ignored.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

func main() {
	metrics := flag.String("metrics", "", "also validate a /metrics snapshot at this path")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-metrics metrics.json] trace.json")
		os.Exit(2)
	}
	failed := false
	check := func(path string, fn func([]byte) (string, error)) {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(1)
		}
		summary, err := fn(data)
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
		} else if !failed {
			fmt.Printf("%s: %s\n", path, summary)
		}
	}
	check(flag.Arg(0), checkTrace)
	if *metrics != "" {
		check(*metrics, checkMetrics)
	}
	if failed {
		os.Exit(1)
	}
}

// checkTrace validates a Chrome-trace file's bytes. It returns a
// one-line summary, or every failed check joined into one error.
func checkTrace(data []byte) (string, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return "", err
	}
	var errs []error
	fail := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }

	if len(tf.TraceEvents) == 0 {
		fail("no trace events")
	}
	spans := map[string]int{}
	threadNames := 0
	dropped := false
	// trackEnd tracks the latest span end seen per (pid, tid) so
	// same-track spans can be checked for overlap; spans are exported
	// in per-track append order, so file order is track order.
	type trackKey struct{ pid, tid int }
	trackEnd := map[trackKey]float64{}
	var components int64
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			fail("event %d: missing name", i)
		}
		switch ev.Ph {
		case "X":
			// Complete events need a timestamp and duration for the
			// viewers to place them on a track.
			if ev.Ts == nil || *ev.Ts < 0 {
				fail("event %d (%s): complete event without valid ts", i, ev.Name)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				fail("event %d (%s): complete event without valid dur", i, ev.Name)
			}
			spans[ev.Name]++
			if ev.Ts != nil && ev.Dur != nil {
				// Each track has one writer, so its spans must be
				// disjoint and in order (1e-3 µs of float-export slack).
				k := trackKey{ev.Pid, ev.Tid}
				if end, ok := trackEnd[k]; ok && *ev.Ts < end-1e-3 {
					fail("event %d (%s): overlaps previous span on track %d/%d (ts %.3f < end %.3f)",
						i, ev.Name, ev.Pid, ev.Tid, *ev.Ts, end)
				}
				if end := *ev.Ts + *ev.Dur; end > trackEnd[k] {
					trackEnd[k] = end
				}
			}
			if ev.Name == "batch" {
				if c, ok := ev.Args["components"].(float64); ok {
					components += int64(c)
				} else {
					fail("event %d (%s): missing components arg", i, ev.Name)
				}
			}
		case "M":
			if ev.Name == "thread_name" {
				threadNames++
			}
			if ev.Name == "dropped_spans" {
				dropped = true
			}
		case "":
			fail("event %d (%s): missing ph", i, ev.Name)
		}
	}
	if spans["solve"] == 0 {
		fail("no component \"solve\" spans")
	}
	if spans["batch"] == 0 {
		fail("no reallocation \"batch\" spans")
	}
	// Every component a batch reports must have produced exactly one
	// solve span (unless the per-track cap dropped spans).
	if !dropped && components != int64(spans["solve"]) {
		fail("batch spans report %d components, but %d solve spans present", components, spans["solve"])
	}
	if threadNames == 0 {
		fail("no thread_name metadata (tracks would be unlabeled)")
	}
	return fmt.Sprintf("%d events, %d solve spans, %d batch spans, %d named tracks",
		len(tf.TraceEvents), spans["solve"], spans["batch"], threadNames), errors.Join(errs...)
}

// checkMetrics validates a /metrics body: it parses, is stamped with
// this build's schema version, and holds at least one counter.
func checkMetrics(data []byte) (string, error) {
	var m obs.Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return "", err
	}
	if err := obs.CheckSchema(m.Schema); err != nil {
		return "", err
	}
	if len(m.Counters) == 0 {
		return "", errors.New("metrics snapshot has no counters")
	}
	return fmt.Sprintf("%d counters, %d gauges, %d histograms", len(m.Counters), len(m.Gauges), len(m.Histograms)), nil
}
