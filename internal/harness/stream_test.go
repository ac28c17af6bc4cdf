package harness

import (
	"math"
	"sort"
	"testing"
	"time"

	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

// TestStreamedPlayHoldsTheLiveSet: a 200,000-flow fat-tree play on leap
// — runDynamic on the substrate RunDynamicWith builds, so the engine's
// tables can be read afterwards — finishes every flow with state sized
// by the flows alive at once, not by the schedule: the table's id
// high-water mark and the id → admission-number index stay within the
// peak live set plus one release batch (releaseEvery, and a few ids for
// the fed-ahead arrival and the completions of the step that crosses
// the threshold), the path arena within six ints (the longest fat-tree
// path) per id.
func TestStreamedPlayHoldsTheLiveSet(t *testing.T) {
	ft := fluid.NewFatTree(8, 10e9)
	cfg := DefaultDynamic(DCTCP, workload.WebSearch(), 0.05)
	cfg.FatTree, cfg.Flows, cfg.Drain = ft, 200_000, sim.Duration(sim.Forever)
	leng := leap.NewEngine(ft.Net, leap.Config{Allocator: LeapAllocatorFor(cfg.Scheme)})
	sub := &flowLevel{eng: leng, leap: leng}
	res := runDynamic(cfg, fatTree{ft}, sub, leng)
	if len(res.Records) != cfg.Flows || res.Unfinished != 0 {
		t.Fatalf("%d records, %d unfinished, want all %d flows finished", len(res.Records), res.Unfinished, cfg.Flows)
	}

	// The peak live set, from the records: +1 at every start, −1 at
	// every finish, departures first where they tie.
	type edge struct {
		at    float64
		delta int
	}
	edges := make([]edge, 0, 2*len(res.Records))
	for _, r := range res.Records {
		edges = append(edges, edge{r.Start.Seconds(), 1}, edge{r.Start.Seconds() + r.FCT, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	live, peak := 0, 0
	for _, e := range edges {
		live += e.delta
		peak = max(peak, live)
	}

	tbl := leng.Tables()
	bound := peak + releaseEvery + 16
	if peak == 0 || tbl.Cap() > bound || len(sub.number) > bound || tbl.ArenaInts() > 6*bound {
		t.Errorf("after %d flows (peak live %d): table cap %d, index %d entries, arena %d ints; want ≤ %d, %d and %d",
			cfg.Flows, peak, tbl.Cap(), len(sub.number), tbl.ArenaInts(), bound, bound, 6*bound)
	}
}

// TestDynamicDegenerateSchedules: the schedules with nothing to stream
// — no flows, no load, one arrival, every arrival in the same
// picosecond, a fault after the last completion — give defined results
// on every engine that can play them, and return.
func TestDynamicDegenerateSchedules(t *testing.T) {
	faultAfterTheEnd := func(last sim.Time) []workload.Fault {
		return []workload.Fault{{At: last.Add(10 * sim.Second), Link: 0, Fail: true}}
	}
	for _, c := range []struct {
		name   string
		flows  int
		load   float64
		faults func(sim.Time) []workload.Fault
		want   int // finished flows
	}{
		{"no flows", 0, 0.4, nil, 0},
		{"negative flows", -3, 0.4, nil, 0},
		{"no load", 50, 0, nil, 0},
		{"one arrival", 1, 0.4, nil, 1},
		{"all at t=0", 40, math.Inf(1), nil, 40},
		{"fault after the last completion", 30, 0.4, faultAfterTheEnd, 30},
	} {
		for _, eng := range []Engine{EngineLeap, EngineFluid, EnginePacket} {
			if c.faults != nil && eng != EngineLeap {
				continue
			}
			cfg := DefaultDynamic(DCTCP, workload.Uniform(100<<10), c.load)
			cfg.Flows, cfg.Faults = c.flows, c.faults
			if c.faults != nil {
				cfg.FatTree, cfg.Drain = fluid.NewFatTree(4, 10e9), sim.Duration(sim.Forever)
			}
			done := make(chan DynamicResult, 1)
			go func() { done <- RunDynamicWith(eng, cfg) }()
			var res DynamicResult
			select {
			case res = <-done:
			case <-time.After(time.Minute):
				t.Fatalf("%s on %v: no result after a minute", c.name, eng)
			}
			if len(res.Records) != c.want || res.Unfinished != 0 {
				t.Errorf("%s on %v: %d records, %d unfinished, want %d and 0", c.name, eng, len(res.Records), res.Unfinished, c.want)
			}
			for i, r := range res.Records {
				if !(r.FCT > 0) || math.IsInf(r.FCT, 0) || !(r.IdealFCT > 0) || (c.load > 1 && r.Start != 0) {
					t.Errorf("%s on %v: record %d = %+v", c.name, eng, i, r)
				}
			}
			if c.faults != nil && res.LeapStats.Faults != 1 {
				t.Errorf("%s: %d faults applied, want the one scheduled past the end", c.name, res.LeapStats.Faults)
			}
		}
	}
}
