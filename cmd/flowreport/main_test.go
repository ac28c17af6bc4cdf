package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"numfabric/internal/obs"
)

// goldenTrace is the JSONL trace internal/leap's TestFlowTraceExportGolden
// pins: what FlowTracer.WriteJSONL writes of a small traced leap play
// with finished, reservoir-kept and still-active flows and a dead link.
const goldenTrace = "../../internal/leap/testdata/flowtrace_golden.jsonl"

// TestReportMatchesTailAttribution: on a real trace, the top-N table
// lists the trace's finished flows slowest first, and the -csv rows are
// its TailAttribution, link for link.
func TestReportMatchesTailAttribution(t *testing.T) {
	data, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadFlowTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	const top, tail = 5, 0.5
	fin := tr.Finished()
	losses, n := tr.TailAttribution(tail)
	if len(fin) <= top || len(losses) < 2 {
		t.Fatalf("the golden trace has %d finished flows and %d tail links; the test wants more", len(fin), len(losses))
	}

	csvPath := filepath.Join(t.TempDir(), "tail.csv")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-top", strconv.Itoa(top), "-tail", fmt.Sprint(tail), "-csv", csvPath, goldenTrace}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.Bytes())
	}
	out := stdout.String()
	if want := fmt.Sprintf(", %d still active\n", len(tr.Flows)-len(fin)); !strings.Contains(out, want) {
		t.Errorf("report does not count the active flows (%q):\n%s", want, out)
	}

	// The top table: one row per flow, seq first, slowdown fifth.
	_, table, _ := strings.Cut(out, "worst bottleneck\n")
	rows := strings.Split(table, "\n")[:top]
	for i, row := range rows {
		f := strings.Fields(row)
		if len(f) < 5 || f[0] != strconv.FormatUint(fin[i].Seq, 10) || f[4] != fmt.Sprintf("%.1fx", fin[i].Slowdown) {
			t.Errorf("top row %d = %q, want flow seq %d at %.1fx", i, row, fin[i].Seq, fin[i].Slowdown)
		}
	}
	if head := fmt.Sprintf("slowest %d of %d finished flows", n, len(fin)); !strings.Contains(out, head) {
		t.Errorf("report has no %q:\n%s", head, out)
	}

	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(losses)+1 {
		t.Fatalf("%d csv rows, want a header and %d links", len(recs), len(losses))
	}
	for i, a := range losses {
		want := []string{strconv.Itoa(a.Link), a.Name, fmt.Sprintf("%g", a.LostSeconds), fmt.Sprintf("%g", a.Share), strconv.Itoa(a.Flows)}
		if got := recs[i+1][:5]; strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("csv row %d = %v, want %v", i+1, got, want)
		}
	}
}

// TestReportRefusesAnotherSchema: a trace stamped with a schema this
// build does not write is refused with CheckSchema's error.
func TestReportRefusesAnotherSchema(t *testing.T) {
	data, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	stamp := fmt.Sprintf(`"schema":%d`, obs.SchemaVersion)
	if !bytes.Contains(data, []byte(stamp)) {
		t.Fatalf("the golden trace carries no %s", stamp)
	}
	path := filepath.Join(t.TempDir(), "v2.jsonl")
	if err := os.WriteFile(path, bytes.Replace(data, []byte(stamp), []byte(`"schema":2`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), obs.CheckSchema(2).Error()) {
		t.Errorf("exit %d, stderr %q; want 1 and %q", code, stderr.String(), obs.CheckSchema(2).Error())
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused trace still printed a report:\n%s", stdout.Bytes())
	}
}
