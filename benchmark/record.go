package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// record is the benchmark's output file: where it ran, on what source,
// and every workload's cells.
type record struct {
	Schema     string  `json:"schema"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Rev        string  `json:"rev"`
	Dirty      bool    `json:"dirty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds_per_workload"`
	// BuildS is the one-time go build of cmd/numfabric (information
	// only: it depends on the build cache).
	BuildS    float64          `json:"build_s"`
	Workloads []workloadRecord `json:"workloads"`
}

const recordSchema = "numfabric-benchmark/1"

func newRecord(seed uint64, seconds float64) record {
	rec := record{
		Schema: recordSchema, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Rev: "unknown", Seed: seed, Seconds: seconds,
	}
	// Outside a git work tree (the driver's checkout) the rev stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rec.Rev = strings.TrimSpace(string(out))
		status, _ := exec.Command("git", "status", "--porcelain").Output()
		rec.Dirty = len(status) > 0
	}
	return rec
}

// runAll is the one-command benchmark: every workload's untraced plays,
// then its traced play and checks; all metrics printed by name with
// units; the record and the traces written under outDir.
func runAll(r *runner, seed uint64, seconds float64, outPath string, stdout io.Writer) (bool, error) {
	rec := newRecord(seed, seconds)
	rec.BuildS = r.buildS
	ok := true
	for i := range workloads {
		w := &workloads[i]
		r.log("%s: measuring", w.Name)
		wr := r.measure(w, seed, time.Duration(seconds*float64(time.Second)))
		if wr.Failed == 0 {
			r.log("%s: tracing", w.Name)
			r.trace(w, seed, &wr)
		}
		ok = ok && wr.Failed == 0
		rec.Workloads = append(rec.Workloads, wr)
		printWorkload(stdout, wr)
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	return ok, nil
}

// spread is a cell's interquartile range over the panel's schedules as
// a share of its median: how much the schedules differ in cost, not
// noise. It is 0 for a panel of one.
func (c cell) spread() float64 {
	if c.Median == 0 {
		return 0
	}
	return (c.Q3 - c.Q1) / c.Median
}

func printWorkload(out io.Writer, wr workloadRecord) {
	fmt.Fprintf(out, "\n== %s (%d flows/play) ==\n", wr.Name, wr.Flows)
	for _, m := range endToEnd {
		c := wr.EndToEnd[m.Name]
		fmt.Fprintf(out, "  %-28s %14.6g %-8s schedules' IQR %5.2f%% of median, %d plays\n",
			m.Name, c.Median, m.Unit, 100*c.spread(), c.Plays)
	}
	fmt.Fprintf(out, "  %-28s %14.6g %-8s %d failed of %d attempted flows\n",
		"fail_frac", wr.FailFrac, "ratio", wr.Failed, wr.Attempted)
	if wr.Why != "" {
		fmt.Fprintf(out, "  FAILED: %s\n", wr.Why)
	}
	fmt.Fprintf(out, "  %-28s %s\n", "sim.fct_fingerprint", wr.Fingerprint)
	for _, m := range perLayer {
		if v, ok := wr.Layers[m.Name]; ok && m.Name != "sim.fct_fingerprint" {
			fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	shares := make([]string, 0, len(wr.Shares))
	for name := range wr.Shares {
		shares = append(shares, name)
	}
	sort.Slice(shares, func(i, j int) bool { return wr.Shares[shares[i]] > wr.Shares[shares[j]] })
	for _, name := range shares {
		fmt.Fprintf(out, "  share of traced wall: %-22s %5.1f%%\n", name, 100*wr.Shares[name])
	}
}

// result is the one JSON object a driver run prints last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one workload, measured for the given
// seconds with tracing off (every end-to-end metric) or traced once
// (every per-layer metric).
func runOne(r *runner, w *workloadSpec, seed uint64, seconds float64, traced bool) result {
	res := result{Metrics: map[string]metricJSON{}}
	var wr workloadRecord
	if traced {
		wr = workloadRecord{Name: w.Name, Flows: w.Flows}
		r.trace(w, seed, &wr)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricJSON{wr.Layers[m.Name], m.Unit}
		}
	} else {
		wr = r.measure(w, seed, time.Duration(seconds*float64(time.Second)))
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricJSON{wr.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	if wr.Why != "" {
		r.log("%s: %s", w.Name, wr.Why)
	}
	res.Attempted, res.Failed = max(wr.Attempted, 1), wr.Failed
	res.Correct = wr.Failed == 0
	return res
}

// diff prints, for every (end-to-end metric, workload) cell of two
// records, how much worse b's median is than a's against the metric's
// bound — "regressed" when it is worse by more than the bound. How far
// that difference can be trusted comes from the plays: play j of a and
// play j of b ran the same schedule in the same round, so the ratio b/a
// is taken per play, and the interquartile range of the ratios over the
// square root of their number gauges the error of the comparison —
// "unresolved" when that is wider than the bound, or when fewer than
// minPairs plays pair up. Simulated statistics must match exactly. It
// reports whether every cell is ok.
func diff(out io.Writer, a, b record) bool {
	allOK := true
	fmt.Fprintf(out, "a: rev %s dirty=%v nproc=%d seed=%d\nb: rev %s dirty=%v nproc=%d seed=%d\n",
		a.Rev, a.Dirty, a.NProc, a.Seed, b.Rev, b.Dirty, b.NProc, b.Seed)
	fmt.Fprintf(out, "%-12s %-12s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a", "b", "worse", "bound", "error", "pairs", "verdict")
	byName := map[string]workloadRecord{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		pairs := 0
		for pairs < min(len(wa.Plays), len(wb.Plays)) && wa.Plays[pairs].Seed == wb.Plays[pairs].Seed {
			pairs++
		}
		for _, m := range endToEnd {
			ma, mb := wa.EndToEnd[m.Name].Median, wb.EndToEnd[m.Name].Median
			worse := mb/ma - 1
			if m.Better == higher {
				worse = 1 - mb/ma
			}
			ratios := make([]float64, pairs)
			for j := range ratios {
				ratios[j] = wb.Plays[j].value(m.Name) / wa.Plays[j].value(m.Name)
			}
			q1, q2, q3 := quartiles(ratios)
			errorOf := (q3 - q1) / q2 / math.Sqrt(float64(max(pairs, 1)))
			verdict := "ok"
			switch {
			case pairs < minPairs || errorOf > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			allOK = allOK && verdict == "ok"
			fmt.Fprintf(out, "%-12s %-12s %14.6g %14.6g %+7.2f%% %6.0f%% %6.2f%% %6d  %s\n",
				wa.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*errorOf, pairs, verdict)
		}
		verdict := "identical"
		if wa.Fingerprint != wb.Fingerprint || wa.Layers["sim.finished"] != wb.Layers["sim.finished"] {
			verdict = "DIFFERENT"
			allOK = false
		}
		if wa.Failed+wb.Failed > 0 {
			verdict += fmt.Sprintf(", failed flows a=%d b=%d", wa.Failed, wb.Failed)
			allOK = false
		}
		fmt.Fprintf(out, "%-12s %-12s %16s %16s  simulated statistics %s\n",
			wa.Name, "sim.*", wa.Fingerprint, wb.Fingerprint, verdict)
	}
	return allOK
}

func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordSchema {
		return rec, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
	}
	return rec, nil
}
