package leap

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// traceEverything returns a tracer that keeps every completion, for
// property tests that must see the whole population.
func traceEverything() *obs.FlowTracer {
	return obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 1})
}

// TestFlowTraceDoesNotChangeResults: attaching the flow tracer must
// leave completions byte-identical to a detached run — the tracer only
// reads engine state.
func TestFlowTraceDoesNotChangeResults(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		_, bf := runDense(Config{}, seed)
		_, tf := runDense(Config{Obs: obs.Hooks{FlowTrace: traceEverything()}}, seed)
		assertSameCompletions(t, "flowtrace", seed, bf, tf)
	}
}

// TestFlowTraceAttributionIdentity pins the tracing subsystem's two
// exactness invariants for every traced flow:
//
//  1. Tiling: the rate segments cover [Arrive, Finish] exactly — the
//     first segment starts at the arrival, boundaries strictly
//     increase, and the service they integrate to is the flow's size.
//  2. Attribution: the per-link lost-service integrals
//     ∫(LineRate−rate)dt / LineRate sum to FCT − IdealFCT.
//
// Both must hold with the engine's own completion times, byte-exact
// modulo float accumulation (1e-6 relative).
func TestFlowTraceAttributionIdentity(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ft := traceEverything()
		_, fs := runDense(Config{Obs: obs.Hooks{FlowTrace: ft}}, seed)

		finite := 0
		for _, f := range fs {
			if f.SizeBytes > 0 {
				finite++
			}
		}
		s := ft.Summary()
		if s.Tracked != uint64(finite) || s.Completed != uint64(finite) || s.Active != 0 {
			t.Fatalf("seed %d: summary %+v, want %d finite flows tracked and done",
				seed, s, finite)
		}

		recs := map[int]*obs.FlowRecord{}
		for _, r := range ft.Records() {
			recs[r.ID] = r
		}
		for _, f := range fs {
			r := recs[f.ID]
			if r == nil {
				t.Fatalf("seed %d: flow %d has no record", seed, f.ID)
			}
			if !r.Finished || r.Finish != f.Finish || r.Arrive != f.Arrive {
				t.Fatalf("seed %d flow %d: record times (%v, %v) != engine (%v, %v)",
					seed, f.ID, r.Arrive, r.Finish, f.Arrive, f.Finish)
			}

			// Tiling: first segment at the arrival, strictly
			// increasing boundaries, all inside [Arrive, Finish].
			if len(r.Segs) == 0 || r.Segs[0].T != r.Arrive {
				t.Fatalf("seed %d flow %d: segments do not start at arrival: %+v",
					seed, f.ID, r.Segs)
			}
			for i := 1; i < len(r.Segs); i++ {
				if r.Segs[i].T <= r.Segs[i-1].T {
					t.Fatalf("seed %d flow %d: segment boundaries not increasing at %d: %+v",
						seed, f.ID, i, r.Segs)
				}
			}
			if last := r.Segs[len(r.Segs)-1].T; last > r.Finish {
				t.Fatalf("seed %d flow %d: segment starts after finish (%v > %v)",
					seed, f.ID, last, r.Finish)
			}
			// Every bottleneck lies on the flow's path.
			for i, seg := range r.Segs {
				onPath := false
				for _, l := range f.Links {
					if int32(l) == seg.Bneck {
						onPath = true
					}
				}
				if !onPath {
					t.Fatalf("seed %d flow %d seg %d: bottleneck %d not on path %v",
						seed, f.ID, i, seg.Bneck, f.Links)
				}
			}
			// The segments integrate to the flow's service: with no
			// truncation, ∫rate·dt over the tiling equals size·8.
			if r.Truncated == 0 {
				var bits float64
				for i, seg := range r.Segs {
					end := r.Finish
					if i+1 < len(r.Segs) {
						end = r.Segs[i+1].T
					}
					bits += seg.Rate * (end - seg.T)
				}
				want := float64(r.SizeBytes) * 8
				if math.Abs(bits-want) > 1e-6*want {
					t.Fatalf("seed %d flow %d: segments integrate to %g bits, size is %g",
						seed, f.ID, bits, want)
				}
			}
			// The attribution identity.
			want := r.FCT - r.IdealFCT
			if got := r.TotalLost(); math.Abs(got-want) > 1e-6*r.FCT {
				t.Fatalf("seed %d flow %d: lost %g != FCT-ideal %g",
					seed, f.ID, got, want)
			}
		}
	}
}

// TestFlowTraceBatchOrdinals: solve segments carry the ordinal of the
// reallocation batch that set their rate.
func TestFlowTraceBatchOrdinals(t *testing.T) {
	ft := traceEverything()
	runDense(Config{Obs: obs.Hooks{FlowTrace: ft}}, 1)
	for _, r := range ft.Records() {
		for _, seg := range r.Segs {
			if seg.Batch > 0 {
				return
			}
		}
	}
	t.Error("no batch ordinals recorded")
}

// TestFlowTraceLinkLoadStaysFeasible: with the exact water-filling
// allocator the traced per-link load must never exceed capacity over
// any settled interval — the tracer's link accounting mirrors the
// engine's real allocations.
func TestFlowTraceLinkLoadStaysFeasible(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ft := traceEverything()
		runDense(Config{Obs: obs.Hooks{FlowTrace: ft}}, seed)
		for _, ls := range ft.LinksSnapshot() {
			if ls.PeakUtil > 1+1e-9 {
				t.Errorf("seed %d link %d: settled peak utilization %g > 1",
					seed, ls.Link, ls.PeakUtil)
			}
			// Load is delta-accumulated, so cancellation leaves float
			// dust — but nothing material relative to capacity.
			if math.Abs(ls.Load) > 1e-9*ls.Capacity || ls.Active != 0 {
				t.Errorf("seed %d link %d: residual load %g / %d active after completion",
					seed, ls.Link, ls.Load, ls.Active)
			}
		}
	}
}

// TestFlowTraceBottleneckIsMinSlack: on a two-link path where one
// link is saturated by cross traffic, the traced bottleneck of the
// victim flow must be the contended link, not the idle one.
func TestFlowTraceBottleneckIsMinSlack(t *testing.T) {
	ft := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 1})
	e := NewEngine(fluid.NewNetwork([]float64{10e9, 40e9}), Config{
		Obs: obs.Hooks{FlowTrace: ft},
	})
	// Two flows share link 0; the victim also crosses the fat link 1.
	victim := e.AddFlow([]int{0, 1}, core.ProportionalFair(), 1<<20, 0)
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.Run(math.Inf(1))
	if victim.Finish == 0 {
		t.Fatal("victim did not finish")
	}
	recs := ft.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, r := range recs {
		if r.ID != victim.ID {
			continue
		}
		for i, seg := range r.Segs {
			if seg.Bneck != 0 {
				t.Errorf("victim seg %d: bottleneck %d, want contended link 0 (segs %+v)",
					i, seg.Bneck, r.Segs)
			}
		}
		// The victim's line rate is the thin link, so time lost to
		// sharing is attributed to link 0.
		if len(r.Lost) != 1 || r.Lost[0].Link != 0 {
			t.Errorf("victim attribution %+v, want link 0 alone", r.Lost)
		}
	}
}

// subsetOnly forwards fluid.SubsetAllocator's methods and nothing else,
// as a decorator that times or counts an allocator's solves may.
type subsetOnly struct{ fluid.SubsetAllocator }

// TestFlowTraceBottleneckThroughWrapper: the traced bottleneck is the
// engine's to compute, so an allocator behind a wrapper that forwards
// only SubsetAllocator records the same segments as the bare one — here
// on a path whose least-slack link (the shared 40 Gb/s one) is not its
// least-capacity link (the idle 10 Gb/s one).
func TestFlowTraceBottleneckThroughWrapper(t *testing.T) {
	var victim int
	play := func(alloc fluid.SubsetAllocator) map[int][]obs.FlowSeg {
		ft := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 1})
		e := NewEngine(fluid.NewNetwork([]float64{10e9, 40e9}), Config{
			Allocator: alloc,
			Obs:       obs.Hooks{FlowTrace: ft},
		})
		// The victim crosses both links; seven more flows share link 1
		// with it, so each gets 5 Gb/s and link 0 keeps 5 Gb/s of slack.
		victim = e.AddFlow([]int{0, 1}, core.ProportionalFair(), 1<<20, 0).ID
		for i := 0; i < 7; i++ {
			e.AddFlow([]int{1}, core.ProportionalFair(), 2<<20, 0)
		}
		e.Run(math.Inf(1))
		segs := map[int][]obs.FlowSeg{}
		for _, r := range ft.Records() {
			segs[r.ID] = r.Segs
		}
		return segs
	}
	bare := play(fluid.NewWaterFill())
	wrapped := play(subsetOnly{fluid.NewWaterFill()})
	if len(wrapped) != len(bare) {
		t.Fatalf("wrapped allocator traced %d flows, bare %d", len(wrapped), len(bare))
	}
	for id, segs := range bare {
		if !reflect.DeepEqual(wrapped[id], segs) {
			t.Errorf("flow %d: wrapped allocator traced %+v, bare %+v", id, wrapped[id], segs)
		}
	}
	if len(bare[victim]) == 0 {
		t.Fatal("victim has no segments")
	}
	for i, seg := range bare[victim] {
		if seg.Bneck != 1 {
			t.Errorf("victim seg %d: bottleneck %d, want the shared link 1 (segs %+v)", i, seg.Bneck, bare[victim])
		}
	}
}

// TestFlowTraceJSONLRoundTrip: what FlowTracer.WriteJSONL writes of a
// traced run, obs.ReadFlowTrace reads back — the totals, every kept
// flow with its times and per-link losses, and the per-link statistics
// — so the offline reader (cmd/flowreport) and the writer cannot drift
// apart.
func TestFlowTraceJSONLRoundTrip(t *testing.T) {
	ft := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0.5, SlowestK: 8})
	ft.SetLinkName(func(l int) string { return "L" + strconv.Itoa(l) })
	runDense(Config{Obs: obs.Hooks{FlowTrace: ft}}, 1)

	var buf bytes.Buffer
	if err := ft.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadFlowTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary != ft.Summary() {
		t.Errorf("summary %+v, wrote %+v", got.Summary, ft.Summary())
	}
	recs := ft.Records()
	if len(got.Flows) != len(recs) || len(recs) == 0 {
		t.Fatalf("%d flow lines, wrote %d records", len(got.Flows), len(recs))
	}
	for i, r := range recs {
		fl := got.Flows[i]
		if fl.ID != r.ID || fl.Seq != r.Seq || !fl.Finished || fl.Arrive != r.Arrive || fl.Finish != r.Finish ||
			fl.FCT != r.FCT || fl.IdealFCT != r.IdealFCT || len(fl.Segs) != len(r.Segs) || !reflect.DeepEqual(fl.Lost, r.Lost) {
			t.Fatalf("flow line %d = %+v, wrote record %+v", i, fl, r)
		}
		for j, l := range fl.Lost {
			if l.Name != "L"+strconv.Itoa(l.Link) {
				t.Fatalf("flow %d loss %d = %+v, want it labelled", r.ID, j, l)
			}
		}
	}
	links := ft.LinksSnapshot()
	if len(got.Links) != len(links) || len(links) == 0 {
		t.Fatalf("%d link lines, wrote %d", len(got.Links), len(links))
	}
	for i, ls := range links {
		if ll := got.Links[i]; !reflect.DeepEqual(ll.LinkSnapshot, ls) || ll.Name != "L"+strconv.Itoa(ls.Link) {
			t.Fatalf("link line %d = %+v, wrote %+v", i, ll, ls)
		}
	}

	if _, err := obs.ReadFlowTrace(strings.NewReader(`{"type":"flow","id":1}` + "\n")); err == nil {
		t.Error("a stream without a summary record read as a flow trace")
	}
	summary := fmt.Sprintf(`{"type":"summary","schema":%d}`, obs.SchemaVersion)
	if _, err := obs.ReadFlowTrace(strings.NewReader(summary + "\nnot json\n")); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("malformed record 2: error %v", err)
	}
}
