package leap

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// goldenFlowTracePlay is the fixed traced play TestFlowTraceExportGolden
// pins: 40 flows over six links, a FlowTracer sampling half the flows
// with a slowest-4 reservoir and three segments per record, and a live
// hook. Link 1 fails and recovers mid-run and link 3 fails for good, so
// segments of all four causes appear, a flow stranded on link 3 is
// still active when the run stops, and the namer — which marks a link
// dead when its capacity is zero, like fluid.FatTree.LinkLabel — labels
// link 3 differently at export than while the flows that crossed it
// ran.
func goldenFlowTracePlay() (*obs.FlowTracer, *obs.Live) {
	net := fluid.NewNetwork([]float64{10e9, 10e9, 40e9, 10e9, 20e9, 10e9})
	ft := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0.5, SlowestK: 4, MaxSegs: 3})
	ft.SetLinkName(func(l int) string {
		name := "L" + strconv.Itoa(l)
		if net.Capacity[l] <= 0 {
			name += " (dead)"
		}
		return name
	})
	live := obs.NewLive()
	e := NewEngine(net, Config{Obs: obs.Hooks{FlowTrace: ft, Live: live}})
	rng := rand.New(rand.NewSource(28))
	at := 0.0
	for i := 0; i < 40; i++ {
		path := []int{rng.Intn(6)}
		if l := rng.Intn(6); l != path[0] {
			path = append(path, l)
		}
		e.AddFlow(path, core.ProportionalFair(), int64(1+rng.Intn(64))<<10, at)
		at += rng.ExpFloat64() * 20e-6
	}
	e.FailLink(1, 200e-6)
	e.RecoverLink(1, 300e-6)
	e.FailLink(3, 600e-6)
	e.Run(800e-6)
	return ft, live
}

// TestFlowTraceExportGolden pins, byte for byte, what the flow tracer
// and the live hook export of goldenFlowTracePlay: the JSONL trace, the
// /flows payload, the /links body and the /metrics body served after
// the run. The files under testdata/ were written by the tracer as it
// stood before its record and segment types were merged; a change to
// any key, its order, its omission rule or a label's timing fails here.
func TestFlowTraceExportGolden(t *testing.T) {
	ft, live := goldenFlowTracePlay()
	var trace bytes.Buffer
	if err := ft.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	flows, err := json.MarshalIndent(ft.FlowsSnapshotTop(50, 0.01), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	serve := func(path string) []byte {
		rec := httptest.NewRecorder()
		obs.Handler(live, ft).ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Body.Bytes()
	}
	for _, c := range []struct {
		file string
		got  []byte
	}{
		{"flowtrace_golden.jsonl", trace.Bytes()},
		{"flowtrace_golden_flows.json", append(flows, '\n')},
		{"flowtrace_golden_links.json", serve("/links")},
		{"flowtrace_golden_metrics.json", serve("/metrics")},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s moved:\n%s\nwant\n%s", c.file, c.got, want)
		}
	}
	// The play must keep exercising what the pin is for.
	for _, s := range []string{`"cause":"admit"`, `"cause":"solve"`, `"cause":"fail"`, `"cause":"recover"`,
		`"truncated_segs"`, `"finished":false`, `"sampled":false`, `(dead)`} {
		if !strings.Contains(trace.String(), s) {
			t.Errorf("the golden trace has no %s", s)
		}
	}
}
