package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

// traced builds a bound tracer over a 3-link network.
func traced(cfg FlowTraceConfig) *FlowTracer {
	t := NewFlowTracer(cfg)
	t.Bind([]float64{10, 20, 5})
	return t
}

func TestFlowTraceLifecycleAndAttribution(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 1})
	// 80 bits over links {0, 2}: line rate 5 (link 2). Runs at 2.5 for
	// 16 s (bottleneck 0 reported), then 5 until done (16 s in, 40
	// bits remain → 8 s more).
	ft.Admit(7, 10, 100, []int{0, 2})
	ft.Rate(7, 100, 2.5, 0, CauseSolve, 3, 1)
	ft.Rate(7, 116, 5, 2, CauseSolve, 2, 2)
	ft.Complete(7, 124)

	recs := ft.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	if !r.Finished || r.ID != 7 {
		t.Fatalf("record = %+v", r)
	}
	if r.lineRate != 5 || r.lineBneck != 2 {
		t.Fatalf("line rate/bneck = %g/%d, want 5/2", r.lineRate, r.lineBneck)
	}
	if got, want := r.FCT, 24.0; got != want {
		t.Errorf("FCT = %g, want %g", got, want)
	}
	if got, want := r.IdealFCT, 16.0; got != want {
		t.Errorf("IdealFCT = %g, want %g", got, want)
	}
	// Segments tile [arrive, finish]: the admit seed was overwritten by
	// the same-instant solve.
	if len(r.Segs) != 2 || r.Segs[0].T != 100 || r.Segs[1].T != 116 {
		t.Fatalf("segs = %+v", r.Segs)
	}
	if r.Segs[0].Cause != CauseSolve || r.Segs[0].Comp != 3 || r.Segs[0].Batch != 1 {
		t.Errorf("seg 0 = %+v", r.Segs[0])
	}
	// Lost service: 16 s at half the line rate = 8 s, all on link 0.
	if got := r.TotalLost(); got != 8 {
		t.Errorf("TotalLost = %g, want 8", got)
	}
	if want := r.FCT - r.IdealFCT; r.TotalLost() != want {
		t.Errorf("identity: lost %g != FCT-ideal %g", r.TotalLost(), want)
	}
	if len(r.Lost) != 1 || r.Lost[0].Link != 0 || r.Lost[0].LostSeconds != 8 || r.Lost[0].Share != 1 {
		t.Errorf("attribution = %+v", r.Lost)
	}

	attr, n := ft.Trace().TailAttribution(1)
	if n != 1 || len(attr) != 1 || attr[0].Link != 0 || attr[0].LostSeconds != 8 || attr[0].Share != 1 {
		t.Errorf("TailAttribution = %+v, %d", attr, n)
	}
}

func TestFlowTraceZeroRateSeedTilesFromArrival(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 1})
	// First solve lands after arrival: the seeded zero-rate segment
	// must cover [arrive, first solve) and attribute the wait to the
	// line-rate bottleneck.
	ft.Admit(0, 10, 5, []int{1}) // line rate 20
	ft.Rate(0, 9, 20, 1, CauseSolve, 1, 1)
	ft.Complete(0, 13)
	r := ft.Records()[0]
	if len(r.Segs) != 2 || r.Segs[0].T != 5 || r.Segs[0].Rate != 0 || r.Segs[0].Cause != CauseAdmit {
		t.Fatalf("segs = %+v", r.Segs)
	}
	// 4 s stalled at rate 0 = 4 s lost, on the line bottleneck.
	if r.TotalLost() != 4 || r.Lost[0].Link != 1 {
		t.Errorf("lost = %+v", r.Lost)
	}
	if want := r.FCT - r.IdealFCT; r.TotalLost() != want {
		t.Errorf("identity: %g != %g", r.TotalLost(), want)
	}
}

func TestFlowTraceCoalescing(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 1})
	ft.Admit(1, 100, 0, []int{0})
	ft.Rate(1, 1, 5, 0, CauseSolve, 1, 1)
	// Same (rate, bneck) again and again: the open segment continues.
	ft.Rate(1, 2, 5, 0, CauseSolve, 4, 2)
	ft.Rate(1, 3, 5, 0, CauseSolve, 9, 3)
	// Same rate, different bottleneck: a real boundary.
	ft.Rate(1, 4, 5, 2, CauseSolve, 2, 4)
	ft.Complete(1, 80)
	r := ft.Records()[0]
	if len(r.Segs) != 3 {
		t.Fatalf("segs = %+v, want seed+2", r.Segs)
	}
	if r.Segs[1].T != 1 || r.Segs[2].T != 4 {
		t.Errorf("boundaries = %g, %g, want 1, 4", r.Segs[1].T, r.Segs[2].T)
	}
}

func TestFlowTraceTruncationKeepsAttributionExact(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 1, MaxSegs: 4})
	ft.Admit(2, 1000, 0, []int{0}) // line rate 10, ideal 800 s
	// Alternate rates so nothing coalesces; far more boundaries than
	// MaxSegs.
	now := 0.0
	rate := 0.0
	for i := 0; i < 40; i++ {
		now = float64(i + 1)
		if i%2 == 0 {
			rate = 5
		} else {
			rate = 2.5
		}
		ft.Rate(2, now, rate, 0, CauseSolve, 1, uint64(i))
	}
	// Drain the remaining bits at the line rate and finish at a time
	// consistent with the rate schedule — the attribution identity
	// presumes the engine's completion times match the rates it set.
	// Rate set at t=j governs [j, j+1); the seed covers [0, 1) at 0.
	sent := 0.0
	for j := 1; j < 40; j++ {
		if j%2 == 1 {
			sent += 5
		} else {
			sent += 2.5
		}
	}
	remain := 1000*8 - sent
	ft.Rate(2, now, 10, 0, CauseSolve, 1, 99)
	finish := now + remain/10
	ft.Complete(2, finish)

	r := ft.Records()[0]
	if r.Truncated == 0 || len(r.Segs) != 4 {
		t.Fatalf("truncated = %d, segs = %d; want truncation at 4", r.Truncated, len(r.Segs))
	}
	want := r.FCT - r.IdealFCT
	if got := r.TotalLost(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("attribution after truncation: lost = %g, want %g", got, want)
	}
}

func TestFlowTraceSamplingDeterministicAndReservoir(t *testing.T) {
	run := func() (*FlowTracer, map[int]bool) {
		ft := traced(FlowTraceConfig{SampleRate: 0.25, SlowestK: 4})
		for id := 0; id < 400; id++ {
			ft.Admit(id, 10, float64(id), []int{0})
			// Slowdown grows with id: the reservoir must hold the top ids.
			ft.Rate(id, float64(id), 8/(1+float64(id)), 0, CauseSolve, 1, 1)
			ft.Complete(id, float64(id)+(1+float64(id)))
		}
		keptIDs := map[int]bool{}
		for _, r := range ft.Records() {
			keptIDs[r.ID] = true
		}
		return ft, keptIDs
	}
	ft1, ids1 := run()
	_, ids2 := run()
	if len(ids1) != len(ids2) {
		t.Fatalf("non-deterministic keep count: %d vs %d", len(ids1), len(ids2))
	}
	for id := range ids1 {
		if !ids2[id] {
			t.Fatalf("flow %d kept in run 1 but not run 2", id)
		}
	}
	s := ft1.Summary()
	if s.Tracked != 400 || s.Completed != 400 || s.Active != 0 {
		t.Fatalf("summary = %+v", s)
	}
	// ~25% hash-sampled (deterministic, loose bounds) + reservoir.
	if s.Kept < 50 || s.Kept > 150 || s.Reservoir != 4 {
		t.Fatalf("kept/reservoir = %d/%d", s.Kept, s.Reservoir)
	}
	// The slowest flows are ids 396..399; all must be present whether
	// via hash or reservoir.
	for id := 396; id < 400; id++ {
		if !ids1[id] {
			t.Errorf("slowest flow %d missing from trace", id)
		}
	}
	// Records come back slowdown-descending.
	recs := ft1.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].Slowdown > recs[i-1].Slowdown {
			t.Fatalf("records not sorted by slowdown at %d", i)
		}
	}
}

func TestFlowTraceSampleRateZeroKeepsOnlyReservoir(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 0, SlowestK: 2})
	for id := 0; id < 10; id++ {
		ft.Admit(id, 10, 0, []int{0})
		ft.Rate(id, 0, 10/(1+float64(id)), 0, CauseSolve, 1, 1)
		ft.Complete(id, (1+float64(id))*8)
	}
	s := ft.Summary()
	if s.Kept != 0 || s.Reservoir != 2 {
		t.Fatalf("kept/reservoir = %d/%d, want 0/2", s.Kept, s.Reservoir)
	}
	recs := ft.Records()
	if len(recs) != 2 || recs[0].ID != 9 || recs[1].ID != 8 {
		t.Fatalf("reservoir holds %v, want the two slowest (9, 8)",
			[]int{recs[0].ID, recs[1].ID})
	}
}

func TestFlowTraceLinkStats(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 1})
	// One flow on link 0 (cap 10) at rate 5 for 10 s, then 10 for 5 s.
	ft.Admit(0, int64(100/8)+1, 0, []int{0})
	ft.Rate(0, 0, 5, 0, CauseSolve, 1, 1)
	ft.Rate(0, 10, 10, 0, CauseSolve, 1, 2)
	ft.Complete(0, 15)

	snaps := ft.LinksSnapshot()
	if len(snaps) != 1 || snaps[0].Link != 0 {
		t.Fatalf("snapshot = %+v", snaps)
	}
	ls := snaps[0]
	// ∫load dt = 5·10 + 10·5 = 100 bits over 15 s of cap 10.
	if want := 100.0 / (10 * 15); math.Abs(ls.AvgUtil-want) > 1e-12 {
		t.Errorf("avg util = %g, want %g", ls.AvgUtil, want)
	}
	if ls.PeakUtil != 1 {
		t.Errorf("peak util = %g, want 1", ls.PeakUtil)
	}
	if ls.FlowSeconds != 15 {
		t.Errorf("flow seconds = %g, want 15", ls.FlowSeconds)
	}
	if ls.Active != 0 || ls.Load != 0 {
		t.Errorf("post-completion load/active = %g/%d, want 0/0", ls.Load, ls.Active)
	}
	if len(ls.Points) == 0 {
		t.Error("no series points recorded")
	}
}

// TestFlowTraceLinkStatsSettledPeak: per-flow updates inside one
// reallocation instant transiently mix old and new rates; the peak
// must reflect only states that persisted for nonzero time.
func TestFlowTraceLinkStatsSettledPeak(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 1})
	ft.Admit(0, 100, 0, []int{0})
	ft.Admit(1, 100, 0, []int{0})
	ft.Rate(0, 0, 8, 0, CauseSolve, 2, 1)
	ft.Rate(1, 0, 2, 0, CauseSolve, 2, 1)
	// Reallocation at t=5 swaps the shares; updating flow 1 first puts
	// a transient 8+8=16 > cap on the link.
	ft.Rate(1, 5, 8, 0, CauseSolve, 2, 2)
	ft.Rate(0, 5, 2, 0, CauseSolve, 2, 2)
	ft.Complete(0, 10)
	ft.Complete(1, 10)
	ls := ft.LinksSnapshot()[0]
	if ls.PeakUtil != 1 {
		t.Errorf("peak util = %g, want 1 (transient mid-instant mix must not count)", ls.PeakUtil)
	}
	// Both settled intervals carried 10 bits/s on a cap-10 link.
	if want := 1.0; math.Abs(ls.AvgUtil-want) > 1e-12 {
		t.Errorf("avg util = %g, want %g", ls.AvgUtil, want)
	}
}

// TestLinkStatsSeriesCap: a full series still settles its last point
// within that point's instant, drops every later one, and
// keeps the exact integrals going.
func TestLinkStatsSeriesCap(t *testing.T) {
	s := newLinkStats([]float64{10})
	s.maxPoints = 3
	link := []int32{0}
	s.addFlow(link, 0, 0)
	s.rateDelta(link, 4, 1)
	s.rateDelta(link, 2, 2) // third point: the series is full
	s.rateDelta(link, 1, 2) // same instant: settles the last point
	want := []LinkPoint{{0, 0, 1}, {1, 4, 1}, {2, 7, 1}}
	if got := s.Snapshot()[0].Points; !slices.Equal(got, want) {
		t.Fatalf("series = %v, want %v", got, want)
	}
	s.rateDelta(link, 1, 3)
	s.removeFlow(link, 8, 4)
	if got := s.Snapshot()[0].Points; !slices.Equal(got, want) {
		t.Fatalf("past the cap: series = %v, want %v", got, want)
	}
	// ∫load dt = 4·1 + 7·1 + 8·1.
	if ls := s.link[0]; ls.utilBits != 19 || ls.flowSecs != 4 {
		t.Errorf("utilBits = %g flowSecs = %g, want 19 and 4", ls.utilBits, ls.flowSecs)
	}
}

func TestFlowTraceJSONLRoundTrip(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 1})
	ft.SetLinkName(func(l int) string { return []string{"a", "b", "c"}[l] })
	ft.Admit(0, 10, 0, []int{0, 2})
	ft.Rate(0, 0, 2.5, 0, CauseSolve, 2, 1)
	ft.Complete(0, 32)
	ft.Admit(1, 10, 30, []int{1}) // still active at export

	var buf bytes.Buffer
	if err := ft.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line does not parse: %v\n%s", err, sc.Text())
		}
		typ, _ := m["type"].(string)
		types[typ]++
		if typ == "flow" && m["finished"] == true {
			if m["fct"].(float64) != 32 {
				t.Errorf("flow line fct = %v", m["fct"])
			}
			segs := m["segs"].([]any)
			seg0 := segs[0].(map[string]any)
			if seg0["bneck_name"] != "a" || seg0["cause"] != "solve" {
				t.Errorf("seg = %v", seg0)
			}
		}
	}
	if types["summary"] != 1 || types["flow"] != 2 || types["link"] == 0 {
		t.Fatalf("line types = %v", types)
	}
}

func TestFlowTraceUntrackedAndForeignIDsIgnored(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 1})
	// None of these may panic or create records.
	ft.Rate(5, 1, 3, 0, CauseSolve, 1, 1)
	ft.Complete(5, 2)
	ft.Rate(-1, 1, 3, 0, CauseSolve, 1, 1)
	ft.Admit(0, 10, 0, []int{0, 99}) // link 99 outside the bound network
	ft.Admit(1, 0, 0, []int{0})      // zero size
	ft.Admit(2, 10, 0, nil)          // empty path
	if s := ft.Summary(); s.Tracked != 0 || s.Active != 0 {
		t.Fatalf("summary after ignored calls = %+v", s)
	}

	// A never-bound tracer ignores everything.
	unbound := NewFlowTracer(FlowTraceConfig{SampleRate: 1})
	unbound.Admit(0, 10, 0, []int{0})
	unbound.Rate(0, 0, 1, 0, CauseSolve, 1, 1)
	unbound.Complete(0, 1)
	if s := unbound.Summary(); s.Tracked != 0 {
		t.Fatalf("unbound tracer tracked %d flows", s.Tracked)
	}
}

// TestFlowTraceReset: Bind starts a fresh run — a second engine bound
// to the tracer finds no record, counter or link statistic of the
// first, on the same network or another.
func TestFlowTraceReset(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 1})
	ft.Admit(0, 10, 0, []int{0})
	ft.Rate(0, 0, 10, 0, CauseSolve, 1, 1)
	ft.Complete(0, 8)
	ft.Admit(1, 10, 8, []int{0})
	ft.Bind([]float64{10, 20, 5})
	if s := ft.Summary(); s.Tracked != 0 || s.Active != 0 || s.Kept != 0 || s.Reservoir != 0 {
		t.Fatalf("summary after rebind = %+v", s)
	}
	if snaps := ft.LinksSnapshot(); snaps != nil {
		t.Fatalf("link stats survived rebind: %+v", snaps)
	}
	ft.Bind([]float64{1})
	ft.Admit(3, 10, 0, []int{0})
	ft.Rate(3, 0, 1, 0, CauseSolve, 1, 1)
	ft.Complete(3, 80)
	if s := ft.Summary(); s.Tracked != 1 || s.Completed != 1 {
		t.Fatalf("summary after rebind to another network = %+v", s)
	}
}

// TestPublishedPagesAreImmutable: a published /flows body and /links
// lines share no storage the tracer writes later. The play runs until
// the slowest-4 reservoir has evicted records, publishes, and goes on
// through more evictions, completions and rate changes on the same
// links; the stored copy must marshal to the same bytes.
func TestPublishedPagesAreImmutable(t *testing.T) {
	ft := traced(FlowTraceConfig{SampleRate: 0.25, SlowestK: 4, MaxSegs: 4})
	ft.SetLinkName(func(l int) string { return []string{"a", "b", "c"}[l] })
	id := 0
	play := func(n int) {
		for end := id + n; id < end; id++ {
			ft.Admit(id, 10, float64(id), []int{id % 3, (id + 1) % 3})
			for k := range 6 { // more segments than MaxSegs, alternating
				ft.Rate(id, float64(id)+float64(k)/8, 1+float64((id+k)%5), id%3, CauseSolve, 2, uint64(id))
			}
			ft.Complete(id, float64(id)+1+float64(id%13))
		}
	}
	marshal := func(p *flowPages) []byte {
		b, err := json.Marshal(p.flows)
		if err != nil {
			t.Fatal(err)
		}
		l, err := json.Marshal(p.links)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, l...)
	}
	play(200)
	ft.Publish()
	p := ft.pages.Load()
	if p.flows.Reservoir != 4 || p.flows.Completed != 200 || len(p.links) != 3 {
		t.Fatalf("published %+v with %d links, want a full reservoir after 200 completions on 3 links",
			p.flows.FlowTraceSummary, len(p.links))
	}
	before := marshal(p)
	play(2000)
	if after := marshal(p); !bytes.Equal(before, after) {
		t.Errorf("the published copy moved as the play went on:\n%s\nwant\n%s", after, before)
	}
	ft.Publish()
	if ft.pages.Load().flows.Completed != 2200 {
		t.Errorf("a second Publish did not replace the copy")
	}
}

func TestSampleKeepBounds(t *testing.T) {
	for id := uint64(0); id < 1000; id++ {
		if sampleKeep(id, 0) {
			t.Fatal("rate 0 kept a flow")
		}
		if !sampleKeep(id, 1) {
			t.Fatal("rate 1 dropped a flow")
		}
	}
	kept := 0
	for id := uint64(0); id < 10000; id++ {
		if sampleKeep(id, 0.1) {
			kept++
		}
	}
	if kept < 800 || kept > 1200 {
		t.Errorf("rate 0.1 kept %d of 10000", kept)
	}
}

func TestLinkNameOrIndex(t *testing.T) {
	ft := traced(FlowTraceConfig{})
	if got := ft.LinkNameOrIndex(-1); got != "-" {
		t.Errorf("negative id = %q", got)
	}
	if got := ft.LinkNameOrIndex(3); got != "link 3" {
		t.Errorf("unnamed = %q", got)
	}
	ft.SetLinkName(func(l int) string { return "core[" + strings.Repeat("3", 1) + "]" })
	if got := ft.LinkNameOrIndex(3); got != "core[3]" {
		t.Errorf("named = %q", got)
	}
}
