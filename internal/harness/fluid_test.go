package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// TestFluidLeafSpineGolden: the xWI fluid engine on the adapter-built
// leaf-spine network reaches the oracle NUM optimum within 2%.
func TestFluidLeafSpineGolden(t *testing.T) {
	topo := NewFluidTopology(ScaledTopology())

	// Flows that stress both host links and spine uplinks: a few
	// cross-leaf pairs, two sharing a source host.
	pairs := [][3]int{{0, 9, 0}, {0, 17, 1}, {8, 25, 0}, {16, 1, 1}, {24, 9, 0}}
	var paths [][]int
	var utils []core.Utility
	for i, pr := range pairs {
		fwd, _ := topo.Route(pr[0], pr[1], pr[2])
		paths = append(paths, PathLinkIDs(fwd))
		if i%2 == 0 {
			utils = append(utils, core.ProportionalFair())
		} else {
			utils = append(utils, core.NewWeightedAlphaFair(1, 2))
		}
	}

	p := core.NewProblem(topo.Net.Capacities())
	for i := range paths {
		p.AddFlow(paths[i], utils[i])
	}
	want := oracle.Solve(p, oracle.SolveOptions{}).Rates

	feng := fluid.NewEngine(FluidNetwork(topo), fluid.Config{
		Epoch:     100e-6,
		Allocator: &fluid.XWI{IterPerEpoch: 4},
	})
	flows := make([]*fluid.Flow, len(paths))
	for i := range paths {
		flows[i] = feng.AddFlow(paths[i], utils[i], 0, 0)
	}
	feng.Run(0.5)
	for i, f := range flows {
		if want[i] <= 0 {
			continue
		}
		if math.Abs(f.Rate-want[i])/want[i] > 0.02 {
			t.Errorf("flow %d: fluid %.4g oracle %.4g (>2%% off)", i, f.Rate, want[i])
		}
	}
}

// TestFluidAllocatorDispatch: scheme → allocator mapping.
func TestFluidAllocatorDispatch(t *testing.T) {
	if _, ok := FluidAllocatorFor(DefaultConfig(NUMFabric, ScaledTopology())).(*fluid.XWI); !ok {
		t.Error("NUMFabric should map to XWI")
	}
	if _, ok := FluidAllocatorFor(DefaultConfig(DGD, ScaledTopology())).(*fluid.DGD); !ok {
		t.Error("DGD should map to DGD")
	}
	if _, ok := FluidAllocatorFor(DefaultConfig(RCP, ScaledTopology())).(*fluid.Oracle); !ok {
		t.Error("RCP should map to Oracle")
	}
	if _, ok := FluidAllocatorFor(DefaultConfig(DCTCP, ScaledTopology())).(*fluid.WaterFill); !ok {
		t.Error("DCTCP should map to WaterFill")
	}
}

func TestParseEngine(t *testing.T) {
	for s, want := range map[string]Engine{
		"packet": EnginePacket, "fluid": EngineFluid, "leap": EngineLeap,
	} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("Engine(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	_, err := ParseEngine("warp")
	if err == nil {
		t.Fatal("ParseEngine should reject unknown engines")
	}
	// The error must name every valid engine, so the CLI's rejection
	// message tells the user what to type instead.
	for _, name := range EngineNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list engine %q", err, name)
		}
	}
}

// TestRunSemiDynamicFluid: the fluid semi-dynamic experiment converges
// on most events, in sensible time.
func TestRunSemiDynamicFluid(t *testing.T) {
	cfg := DefaultSemiDynamic(NUMFabric)
	cfg.Events = 5
	res := RunSemiDynamicWith(EngineFluid, cfg)
	if res.Events != cfg.Events {
		t.Fatalf("ran %d events, want %d", res.Events, cfg.Events)
	}
	if res.Unconverged > 1 {
		t.Errorf("%d/%d events unconverged", res.Unconverged, res.Events)
	}
	med := res.Median()
	if math.IsNaN(med) || med < 0 || med > cfg.EventTimeout.Seconds() {
		t.Errorf("median convergence %g out of range", med)
	}
}

// TestRunDynamicFluid: the fluid dynamic-workload experiment completes
// all flows and lands near the event-driven Oracle ideal.
func TestRunDynamicFluid(t *testing.T) {
	cfg := DefaultDynamic(NUMFabric, workload.Uniform(1<<20), 0.3)
	cfg.Flows = 60
	res := RunDynamicWith(EngineFluid, cfg)
	if res.Unfinished != 0 {
		t.Fatalf("%d flows unfinished", res.Unfinished)
	}
	if len(res.Records) != cfg.Flows {
		t.Fatalf("got %d records, want %d", len(res.Records), cfg.Flows)
	}
	var devs []float64
	for _, rec := range res.Records {
		if rec.FCT <= 0 || math.IsNaN(rec.FCT) {
			t.Fatalf("bad FCT %g", rec.FCT)
		}
		devs = append(devs, math.Abs(rec.Deviation()))
	}
	if med := stats.Median(devs); med > 0.3 {
		t.Errorf("median |deviation| from oracle ideal %.3f, want < 0.3", med)
	}
}

// TestFluidPoolingGolden: on the paper's §6.3 pooling topology, the
// fluid group steady state matches the oracle's exact resource-pooling
// optimum within 2% for every source–destination pair.
func TestFluidPoolingGolden(t *testing.T) {
	cfg := DefaultPooling(4, true)
	cfg.Measure = 100 * sim.Millisecond // enough epochs to converge

	// The oracle's exact multipath optimum over the identical scenario
	// (same seed → same permutation pairs and spine hashes).
	topo := NewFluidTopology(cfg.Topo)
	pathsByPair := poolingPairs(topo, cfg, sim.NewRNG(cfg.Seed))
	p := core.NewProblem(topo.Net.Capacities())
	groupOf := make([]int, len(pathsByPair))
	for pi, paths := range pathsByPair {
		groupOf[pi] = p.AddAggregate(core.ProportionalFair())
		for _, links := range paths {
			p.AddSubflow(groupOf[pi], links)
		}
	}
	sol := oracle.Solve(p, oracle.SolveOptions{MaxIter: 50000})
	if !sol.Converged {
		t.Fatal("oracle did not converge")
	}
	want := make([]float64, len(pathsByPair))
	for i, f := range p.Flows {
		for pi, g := range groupOf {
			if f.Group == g {
				want[pi] += sol.Rates[i]
			}
		}
	}

	res := RunPoolingWith(EngineFluid, cfg)
	if len(res.FlowThroughputs) != len(want) {
		t.Fatalf("got %d pair throughputs, want %d", len(res.FlowThroughputs), len(want))
	}
	for pi, got := range res.FlowThroughputs {
		if math.Abs(got-want[pi])/want[pi] > 0.02 {
			t.Errorf("pair %d: fluid %.4g oracle %.4g (>2%% off)", pi, got, want[pi])
		}
	}
}

// TestRunPoolingWithDispatch: pooling on the fluid engine recovers the
// stranded capacity just as the packet engine does — pooled total
// throughput near optimal and well above the unpooled run's.
func TestRunPoolingWithDispatch(t *testing.T) {
	pooled := RunPoolingWith(EngineFluid, DefaultPooling(4, true))
	unpooled := RunPoolingWith(EngineFluid, DefaultPooling(4, false))
	if got := pooled.TotalThroughputPct(); got < 90 {
		t.Errorf("pooled total %.1f%% of optimal, want ≥ 90%%", got)
	}
	if pooled.TotalThroughputPct() < unpooled.TotalThroughputPct() {
		t.Errorf("pooling reduced throughput: %.1f%% < %.1f%%",
			pooled.TotalThroughputPct(), unpooled.TotalThroughputPct())
	}
	if pooled.JainIndex() < unpooled.JainIndex() {
		t.Errorf("pooling reduced fairness: %.3f < %.3f",
			pooled.JainIndex(), unpooled.JainIndex())
	}
}

// TestRunDynamicWithDispatch: both engines run the same workload and
// return comparable record sets.
func TestRunDynamicWithDispatch(t *testing.T) {
	cfg := DefaultDynamic(NUMFabric, workload.Uniform(200<<10), 0.2)
	cfg.Flows = 20
	cfg.SkipFluidIdeal = true
	fl := RunDynamicWith(EngineFluid, cfg)
	if len(fl.Records)+fl.Unfinished != cfg.Flows {
		t.Errorf("fluid: %d records + %d unfinished != %d flows",
			len(fl.Records), fl.Unfinished, cfg.Flows)
	}
}

// TestParseEngineHostileInput: a name is matched exactly — empty, a
// different case or surrounding whitespace is the unknown-engine error,
// quoting the input as given.
func TestParseEngineHostileInput(t *testing.T) {
	for _, s := range []string{"", " ", "Leap", "LEAP", "Fluid", " leap", "leap ", "\tpacket", "leap\n", "le ap"} {
		got, err := ParseEngine(s)
		if err == nil || got != 0 || !strings.Contains(err.Error(), fmt.Sprintf("unknown engine %q", s)) {
			t.Errorf("ParseEngine(%q) = %v, %v; want the unknown-engine error", s, got, err)
		}
	}
}

// TestAppendRouteMatchesRoute: the leaf-spine fabric's appendRoute, what
// playArrivals routes every arrival with, appends exactly the link ids
// of Route's forward path, for every host pair and spine pick of
// ScaledTopology (a pick past the spine count wraps, as in Route).
func TestAppendRouteMatchesRoute(t *testing.T) {
	topo := NewFluidTopology(ScaledTopology())
	buf := []int{-1}
	for src := range topo.Hosts {
		for dst := range topo.Hosts {
			if src == dst {
				continue
			}
			for pick := 0; pick <= len(topo.Spines); pick++ {
				fwd, _ := topo.Route(src, dst, pick)
				want := PathLinkIDs(fwd)
				got := topo.appendRoute(buf[:1], src, dst, pick)
				if got[0] != -1 || !slices.Equal(got[1:], want) {
					t.Fatalf("appendRoute(%d, %d, %d) = %v after the buffer's -1, want %v", src, dst, pick, got[1:], want)
				}
			}
		}
	}
}
