package harness

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

// The golden fingerprints pin the simulated output of the allocator
// kernels (oracle.Solve, fluid.XWI/DGD/Oracle, the max-min workspace)
// bit for bit: FNV-64a over the little-endian Float64bits of every
// flow's result, in flow order. The constants were generated at the
// commit before the kernels' iteration-invariant work was hoisted
// (PR 13's parent); a kernel change that moves one bit of one FCT
// fails here. Regenerate them only for a change that is *meant* to
// alter simulated results, and say so in CHANGES.md.

type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (fp fingerprint) add(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	fp.h.Write(b[:])
}

func (fp fingerprint) String() string { return fmt.Sprintf("%016x", fp.h.Sum64()) }

// TestGoldenDynamicLeap is the Figure 5 pipeline on the leap engine:
// FCT (fluid.XWI through leap) then IdealFCT (the fluid Oracle through
// leap, FluidIdealFCTs) of every record. The constants were regenerated
// when the ideals moved from refsim's whole-set re-solves to leap's
// per-component ones; every FCT kept its bits.
func TestGoldenDynamicLeap(t *testing.T) {
	cases := []struct {
		flows int
		load  float64
		seed  uint64
		want  string
	}{
		{4000, 0.05, 1, "93752bcfd4b3bb01"},
		{4000, 0.05, 2, "b6b2a723ff0be4f0"},
		{4000, 0.05, 3, "a6245cf3b5dca07e"},
		{600, 0.4, 1, "d670dc5c8255e4ef"},
	}
	for _, c := range cases {
		cfg := DefaultDynamic(NUMFabric, workload.WebSearch(), c.load)
		cfg.Flows, cfg.Seed = c.flows, c.seed
		out := RunDynamicWith(EngineLeap, cfg)
		fp := newFingerprint()
		for _, r := range out.Records {
			fp.add(r.FCT)
			fp.add(r.IdealFCT)
		}
		if got := fp.String(); got != c.want || out.Unfinished != 0 {
			t.Errorf("flows=%d load=%g seed=%d: fingerprint %s (unfinished %d), want %s",
				c.flows, c.load, c.seed, got, out.Unfinished, c.want)
		}
	}
}

// goldenSchedule draws a workload on the k=8 fat-tree from the case's
// seeded stream.
type goldenSchedule func(ft *fluid.FatTree, load float64, nflows int, rng *sim.RNG) ([]workload.Arrival, [][]int)

// goldenCoflows is the benchmark's coflows-wf shape: 15 senders per
// burst, 24 bursts per grid instant.
func goldenCoflows(ft *fluid.FatTree, load float64, nflows int, rng *sim.RNG) ([]workload.Arrival, [][]int) {
	return FatTreeCoflows(ft, load, nflows, 15, 24, rng)
}

// goldenFatTree runs a schedule through the leap engine on the k=8
// fat-tree and fingerprints every flow's finish time. prepare may add
// groups or faults before the run; it returns extra flows to append to
// the fingerprint after the single-path ones.
func goldenFatTree(t *testing.T, alloc fluid.Allocator, schedule goldenSchedule, load float64, nflows int, seed uint64,
	utility func(int64) core.Utility, prepare func(*fluid.FatTree, *leap.Engine, *sim.RNG) []*fluid.Flow) string {
	ft := fluid.NewFatTree(8, 10e9)
	rng := sim.NewRNG(seed)
	arrivals, paths := schedule(ft, load, nflows, rng)
	eng := leap.NewEngine(ft.Net, leap.Config{Allocator: alloc})
	flows := make([]*fluid.Flow, 0, len(arrivals))
	for i, a := range arrivals {
		flows = append(flows, eng.AddFlow(paths[i], utility(a.Size), a.Size, a.At.Seconds()))
	}
	if prepare != nil {
		flows = append(flows, prepare(ft, eng, rng)...)
	}
	eng.Run(math.Inf(1))
	fp := newFingerprint()
	for _, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d unfinished", f.ID)
		}
		fp.add(f.Finish)
	}
	return fp.String()
}

func fctMin(size int64) core.Utility { return core.FCTMin(size, 0.125) }

func propFair(int64) core.Utility { return core.ProportionalFair() }

func numfabricLeapAllocator() fluid.Allocator {
	return LeapAllocatorFor(DefaultConfig(NUMFabric, ScaledTopology()))
}

// goldenPooled adds ECMP groups (4 sampled paths each) on top of the
// single-path schedule and returns their members.
func goldenPooled(groups int) func(*fluid.FatTree, *leap.Engine, *sim.RNG) []*fluid.Flow {
	return func(ft *fluid.FatTree, eng *leap.Engine, rng *sim.RNG) []*fluid.Flow {
		var members []*fluid.Flow
		hosts := ft.Hosts()
		for gi := 0; gi < groups; gi++ {
			src := rng.Intn(hosts)
			dst := (src + 1 + rng.Intn(hosts-1)) % hosts
			g := eng.AddGroup(samplePaths(ft, src, dst, 4, rng), core.ProportionalFair(),
				int64(20_000+rng.Intn(2_000_000)), float64(gi)*40e-6)
			members = append(members, g.Members...)
		}
		return members
	}
}

// goldenFaulted schedules a switch/link fault script, every failure
// recovered, so every flow still finishes.
func goldenFaulted(t *testing.T) func(*fluid.FatTree, *leap.Engine, *sim.RNG) []*fluid.Flow {
	return func(ft *fluid.FatTree, eng *leap.Engine, _ *sim.RNG) []*fluid.Flow {
		faults, err := ExpandFaults(ft, []workload.ScriptedFault{
			{At: 5 * sim.Millisecond, Target: "agg1.0", Down: 15 * sim.Millisecond},
			{At: 10 * sim.Millisecond, Target: "core5", Down: 20 * sim.Millisecond},
			{At: 12 * sim.Millisecond, Target: "link17", Down: 5 * sim.Millisecond},
			{At: 25 * sim.Millisecond, Target: "edge2.1", Down: 10 * sim.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		scheduleFaults(eng, faults)
		return nil
	}
}

// TestGoldenFatTreeKernels covers the remaining consumers of the two
// xWI kernels on the k=8 fat-tree: the paper's algorithm under the
// §6.3 FCT-min utility, ECMP groups (the multipath share heuristic),
// fluid.Oracle and DGD as the leap allocator, and a fault schedule
// (zero-capacity links, price hold, stranded flows, max-capacity
// tracking). The two DGD constants were regenerated when DGD.Prime
// began seeding zero prices instead of 1, which had starved every flow
// on a shared link.
func TestGoldenFatTreeKernels(t *testing.T) {
	cases := []struct {
		name    string
		alloc   fluid.Allocator
		load    float64
		flows   int
		seed    uint64
		utility func(int64) core.Utility
		prepare func(*fluid.FatTree, *leap.Engine, *sim.RNG) []*fluid.Flow
		want    string
	}{
		{"fctmin-xwi/seed1", numfabricLeapAllocator(), 0.12, 10000, 1, fctMin, nil, "3d5c6ba9507e3847"},
		{"fctmin-xwi/seed2", numfabricLeapAllocator(), 0.12, 10000, 2, fctMin, nil, "98d3403b531cbd72"},
		{"pooling-xwi", numfabricLeapAllocator(), 0.1, 3000, 4, propFair, goldenPooled(200), "c8295ae9223e57f2"},
		{"oracle", fluid.NewOracle(), 0.1, 500, 5, propFair, nil, "73a09f9731873a27"},
		{"oracle-pooling", fluid.NewOracle(), 0.05, 150, 6, propFair, goldenPooled(12), "669fea2e847d76d4"},
		{"dgd", LeapAllocatorFor(DefaultConfig(DGD, ScaledTopology())), 0.1, 1000, 7, propFair, nil, "9bdcf262cc9c8b66"},
		{"faults-xwi", numfabricLeapAllocator(), 0.2, 2000, 8, fctMin, goldenFaulted(t), "ca58305bfc5c1ed5"},
		// Load 0.1, not 0.2: at 0.2 DGD runs most of its 600 steps per
		// event (≈ 980k iterations, ≈ 15 s); at 0.1 the 98 link faults
		// still strand and resume 23 flows.
		{"faults-dgd", LeapAllocatorFor(DefaultConfig(DGD, ScaledTopology())), 0.1, 1000, 9, propFair, goldenFaulted(t), "c5b81fca31c1e35d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := goldenFatTree(t, c.alloc, FatTreeWebSearch, c.load, c.flows, c.seed, c.utility, c.prepare); got != c.want {
				t.Errorf("fingerprint %s, want %s", got, c.want)
			}
		})
	}
}

// TestGoldenFatTreeWaterFill pins the event loop itself under the
// stationary allocator, where every bit of a finish time is the loop's
// doing: the Poisson schedule (one arrival or departure per instant,
// the heap and the independence fast paths) and the synchronized
// coflow schedule (wide same-instant batches of many disjoint
// components through solveBatch, colliding completions), plus ECMP
// groups and a fault schedule on the coflows. Constants generated at
// the commit before the worker pool, sharded heaps and PDES windows
// were deleted (PR 14's parent).
func TestGoldenFatTreeWaterFill(t *testing.T) {
	cases := []struct {
		name     string
		schedule goldenSchedule
		load     float64
		flows    int
		seed     uint64
		prepare  func(*fluid.FatTree, *leap.Engine, *sim.RNG) []*fluid.Flow
		want     string
	}{
		{"poisson/seed1", FatTreeWebSearch, 0.1, 20000, 1, nil, "d79d4c5a5adbec75"},
		{"poisson/seed2", FatTreeWebSearch, 0.2, 20000, 2, nil, "d1743a0e513a3f32"},
		{"coflows/seed1", goldenCoflows, 0.1, 20000, 1, nil, "d7958bead297f5e8"},
		{"coflows/seed2", goldenCoflows, 0.3, 20000, 2, nil, "fe3ece726bc15b9d"},
		{"coflows-pooling", goldenCoflows, 0.1, 5000, 3, goldenPooled(200), "c2bc2740ee4bbef0"},
		{"coflows-faults", goldenCoflows, 0.2, 5000, 4, goldenFaulted(t), "11fa653c77b07fca"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := goldenFatTree(t, fluid.NewWaterFill(), c.schedule, c.load, c.flows, c.seed, propFair, c.prepare)
			if got != c.want {
				t.Errorf("fingerprint %s, want %s", got, c.want)
			}
		})
	}
}
