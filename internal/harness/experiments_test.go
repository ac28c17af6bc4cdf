package harness

import (
	"math"
	"testing"

	"numfabric/internal/netsim"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

func TestBWFCapacitySweepMatchesBwE(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Figure 9's shape: at 10G flow 1 takes everything; at 25G the
	// split is 15/10.
	pts := RunBWFCapacitySweep(
		[]sim.BitRate{10 * sim.Gbps, 25 * sim.Gbps}, 5, 15*sim.Millisecond)
	for _, p := range pts {
		tol := 0.12 * p.Capacity
		if math.Abs(p.Flow1-p.Want1) > tol {
			t.Errorf("C=%.0fG: flow1 = %.2fG, want %.2fG",
				p.Capacity/1e9, p.Flow1/1e9, p.Want1/1e9)
		}
		if math.Abs(p.Flow2-p.Want2) > tol {
			t.Errorf("C=%.0fG: flow2 = %.2fG, want %.2fG",
				p.Capacity/1e9, p.Flow2/1e9, p.Want2/1e9)
		}
	}
}

func TestBWFPoolingTracksCapacityChange(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Figure 10: aggregate allocations (10, 3) with X=5G, then (15, 10)
	// after the step to 17G.
	samples := RunBWFPooling(5, 20*sim.Millisecond, 40*sim.Millisecond, sim.Millisecond)
	if len(samples) < 30 {
		t.Fatalf("only %d samples", len(samples))
	}
	var before, after BWFPoolSample
	for _, s := range samples {
		if s.At < sim.Time(19*sim.Millisecond) {
			before = s
		}
		after = s
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.25*want+0.5e9 {
			t.Errorf("%s = %.2fG, want ~%.1fG", name, got/1e9, want/1e9)
		}
	}
	check("flow1 before", before.Flow1, 10e9)
	check("flow2 before", before.Flow2, 3e9)
	check("flow1 after", after.Flow1, 15e9)
	check("flow2 after", after.Flow2, 10e9)
}

func TestPoolingImprovesThroughputAndFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Figure 8: with 8 subflows, resource pooling approaches optimal
	// total throughput and near-perfect flow-level fairness; a single
	// subflow per pair leaves capacity stranded by hash collisions.
	one := RunPoolingWith(EnginePacket, DefaultPooling(1, false))
	pooled := RunPoolingWith(EnginePacket, DefaultPooling(4, true))

	if got := pooled.TotalThroughputPct(); got < 80 {
		t.Errorf("pooled total = %.1f%% of optimal, want > 80%%", got)
	}
	if one.TotalThroughputPct() >= pooled.TotalThroughputPct() {
		t.Errorf("1 subflow (%.1f%%) should underperform 4 pooled subflows (%.1f%%)",
			one.TotalThroughputPct(), pooled.TotalThroughputPct())
	}
	if ji := pooled.JainIndex(); ji < 0.9 {
		t.Errorf("pooled Jain index = %.3f, want > 0.9", ji)
	}
}

func TestDynamicDeviationNUMFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultDynamic(NUMFabric, workload.WebSearch(), 0.4)
	cfg.Flows = 120
	res := RunDynamicWith(EnginePacket, cfg)
	if len(res.Records) < 100 {
		t.Fatalf("only %d/%d flows finished", len(res.Records), cfg.Flows)
	}
	// Median deviation of the larger bins should be near zero
	// (Figure 5a: "the median error of NUMFabric is around zero for
	// all the bins beyond a flow size of 100 KB").
	bins := res.DeviationByBin()
	for _, label := range []string{"(10-100)", "(100-1K)"} {
		s, ok := bins[label]
		if !ok || s.N < 5 {
			continue
		}
		if math.Abs(s.Median) > 0.3 {
			t.Errorf("bin %s median deviation = %.2f, want near 0", label, s.Median)
		}
	}
}

func TestFluidIdealFasterThanLineRateFloor(t *testing.T) {
	// The fluid Oracle can never beat the line-rate FCT floor by more
	// than rounding, and must be finite for every flow.
	cfg := DefaultDynamic(NUMFabric, workload.Enterprise(), 0.3)
	cfg.Flows = 60
	eng := sim.NewEngine()
	nt := netsim.NewNetwork(eng)
	nt.QueueFactory = cfg.Scheme.QueueFactory()
	topo := NewTopology(nt, cfg.Topo)
	rng := sim.NewRNG(9)
	arrivals := workload.Poisson(workload.PoissonConfig{
		Hosts: len(topo.Hosts), HostLink: cfg.Topo.HostLink,
		Load: cfg.Load, CDF: cfg.CDF,
		Duration: sim.Second, MaxFlows: cfg.Flows,
	}, rng)
	spines := make([]int, len(arrivals))
	ideal := FluidIdealFCTs(cfg, topo, arrivals, spines)
	if len(ideal) != len(arrivals) {
		t.Fatal("length mismatch")
	}
	for i, v := range ideal {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("flow %d ideal FCT = %v", i, v)
		}
		// Ideal >= pure serialization time at host rate.
		minT := float64(arrivals[i].Size) * 8 / cfg.Topo.HostLink.Float()
		if v < minT {
			t.Errorf("flow %d ideal %.6g < serialization floor %.6g", i, v, minT)
		}
	}
}

func TestFCTComparableToPFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultFCT()
	cfg.FlowsPerLoad = 120
	nf := RunFCTWith(EnginePacket, cfg, NUMFabric, 0.4)
	pf := RunFCTWith(EnginePacket, cfg, PFabric, 0.4)
	if nf.MeanNormFCT <= 0 || pf.MeanNormFCT <= 0 {
		t.Fatalf("bad normalized FCTs: nf=%v pf=%v", nf.MeanNormFCT, pf.MeanNormFCT)
	}
	// Figure 7: NUMFabric within ~4-20% of pFabric; allow headroom at
	// test scale.
	if nf.MeanNormFCT > 1.8*pf.MeanNormFCT {
		t.Errorf("NUMFabric mean norm FCT %.2f vs pFabric %.2f: too far",
			nf.MeanNormFCT, pf.MeanNormFCT)
	}
}

func TestSweepDTShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinySemiDynamic(NUMFabric)
	cfg.Events = 2
	for _, dt := range []sim.Duration{6 * sim.Microsecond, 24 * sim.Microsecond} {
		cfg.Scheme.NUMFabric.DT = dt
		if res := RunSemiDynamicWith(EnginePacket, cfg); res.Unconverged == 2 {
			t.Errorf("dt=%v: no events converged", dt)
		}
	}
}

func TestRateTraceRecordsSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinySemiDynamic(NUMFabric)
	cfg.Events = 2
	tr := RunRateTrace(cfg, 0, 100*sim.Microsecond)
	if len(tr.Times) < 10 {
		t.Fatalf("only %d samples", len(tr.Times))
	}
	if len(tr.Rates) != len(tr.Times) || len(tr.OracleRates) != len(tr.Times) {
		t.Fatal("trace lengths differ")
	}
}
