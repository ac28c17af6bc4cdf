package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"numfabric/internal/fluid"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// TestLeapGoldenVsEpochFCT is the leap acceptance golden: the same
// seeded web-search Poisson schedule through the event-driven engine
// and through the epoch engine, with the identical stationary
// WaterFill allocator (scheme DCTCP) so the only difference is how
// time advances. The epoch engine runs at a 2 µs epoch — fine enough
// that arrival quantization stops dominating short-flow FCTs — and the
// two FCT distributions must agree within 5% at the median and p95 of
// normalized FCT.
func TestLeapGoldenVsEpochFCT(t *testing.T) {
	cfg := DefaultDynamic(DCTCP, workload.WebSearch(), 0.4)
	cfg.Flows = 300
	cfg.SkipFluidIdeal = true
	cfg.FluidEpoch = 2 * sim.Microsecond

	lp := RunDynamicWith(EngineLeap, cfg)
	ep := RunDynamicWith(EngineFluid, cfg)
	if lp.Unfinished != 0 || ep.Unfinished != 0 {
		t.Fatalf("unfinished: leap %d, epoch %d", lp.Unfinished, ep.Unfinished)
	}
	ln := lp.NormalizedFCTs(cfg.Topo)
	en := ep.NormalizedFCTs(cfg.Topo)
	for _, q := range []struct {
		name string
		f    func([]float64) float64
	}{
		{"median", stats.Median},
		{"p95", func(x []float64) float64 { return stats.Percentile(x, 0.95) }},
	} {
		l, e := q.f(ln), q.f(en)
		if diff := math.Abs(l-e) / e; diff > 0.05 {
			t.Errorf("%s normalized FCT: leap %.4g vs epoch %.4g (%.1f%% apart, want ≤ 5%%)",
				q.name, l, e, diff*100)
		}
	}
}

// TestRunDynamicLeapDeviation: the leap engine under the NUMFabric
// scheme (xWI run to its fixed point at each event) lands near the
// event-driven Oracle ideal.
func TestRunDynamicLeapDeviation(t *testing.T) {
	cfg := DefaultDynamic(NUMFabric, workload.Uniform(1<<20), 0.3)
	cfg.Flows = 60
	res := RunDynamicWith(EngineLeap, cfg)
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
	if med := stats.Median(devs); med > 0.2 {
		t.Errorf("median |deviation| from oracle ideal %.3f, want < 0.2", med)
	}
}

// TestDGDLeapFinishesFig5 plays the Figure 5 schedules (400 web-search
// and enterprise flows at load 0.4, seed 1, as `numfabric -experiment
// fig5a|fig5b -engine leap` does) under DGD on the leap engine: every
// flow must finish, as on the packet and epoch engines. DGD's gradient
// steps scale with the marginal at line rate (≈ 1e-10 at 10 Gb/s), so
// from a cold price of 1 a shared link never comes down and its flows
// crawl at a fraction of a bit per second.
func TestDGDLeapFinishesFig5(t *testing.T) {
	for _, cdf := range []*workload.SizeCDF{workload.WebSearch(), workload.Enterprise()} {
		cfg := DefaultDynamic(DGD, cdf, 0.4)
		cfg.Flows, cfg.Seed, cfg.SkipFluidIdeal = 400, 1, true
		if res := RunDynamicWith(EngineLeap, cfg); res.Unfinished != 0 || len(res.Records) != cfg.Flows {
			t.Errorf("%s: %d finished, %d unfinished; want all %d finished",
				cdf.Name(), len(res.Records), res.Unfinished, cfg.Flows)
		}
	}
}

// TestLeapAllocatorDispatch: scheme → leap allocator mapping.
func TestLeapAllocatorDispatch(t *testing.T) {
	if a, ok := LeapAllocatorFor(DefaultConfig(NUMFabric, ScaledTopology())).(*fluid.XWI); !ok || a.IterPerEpoch < 16 {
		t.Error("NUMFabric should map to a converging XWI")
	}
	if _, ok := LeapAllocatorFor(DefaultConfig(DGD, ScaledTopology())).(*fluid.DGD); !ok {
		t.Error("DGD should map to DGD")
	}
	if _, ok := LeapAllocatorFor(DefaultConfig(RCP, ScaledTopology())).(*fluid.Oracle); !ok {
		t.Error("RCP should map to Oracle")
	}
	if _, ok := LeapAllocatorFor(DefaultConfig(PFabric, ScaledTopology())).(*fluid.WaterFill); !ok {
		t.Error("PFabric should map to WaterFill")
	}
}

// TestRunDynamicWithDispatchLeap: the three-way dispatch reaches the
// leap engine and accounts for every flow.
func TestRunDynamicWithDispatchLeap(t *testing.T) {
	cfg := DefaultDynamic(NUMFabric, workload.Uniform(200<<10), 0.2)
	cfg.Flows = 20
	cfg.SkipFluidIdeal = true
	res := RunDynamicWith(EngineLeap, cfg)
	if len(res.Records)+res.Unfinished != cfg.Flows {
		t.Errorf("leap: %d records + %d unfinished != %d flows",
			len(res.Records), res.Unfinished, cfg.Flows)
	}
}

// TestRunDynamicLeapDeterministic: identical seeds produce identical
// FCT records, to the bit.
func TestRunDynamicLeapDeterministic(t *testing.T) {
	cfg := DefaultDynamic(NUMFabric, workload.WebSearch(), 0.4)
	cfg.Flows = 120
	cfg.SkipFluidIdeal = true
	a := RunDynamicWith(EngineLeap, cfg)
	b := RunDynamicWith(EngineLeap, cfg)
	if len(a.Records) != len(b.Records) || a.Unfinished != b.Unfinished {
		t.Fatalf("run shape differs: %d/%d vs %d/%d records/unfinished",
			len(a.Records), a.Unfinished, len(b.Records), b.Unfinished)
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		// Bitwise-equal FCTs; IdealFCT is NaN on both sides here and
		// NaN != NaN, so compare the populated fields.
		if ra.Size != rb.Size || ra.Start != rb.Start || ra.FCT != rb.FCT {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

// TestRunIncastLeap: every burst completes, and each burst's slowest
// flow lands near the fan-in ideal — Senders flows share the
// receiver's host link, so the last completion is
// Senders × SizeBytes × 8 / hostLink (+ base RTT).
func TestRunIncastLeap(t *testing.T) {
	cfg := DefaultIncast()
	res := RunIncastLeap(cfg)
	if res.Unfinished != 0 {
		t.Fatalf("%d flows unfinished", res.Unfinished)
	}
	if want := cfg.Senders * cfg.Bursts; len(res.Records) != want {
		t.Fatalf("got %d records, want %d", len(res.Records), want)
	}
	ideal := float64(cfg.Senders)*float64(cfg.SizeBytes)*8/cfg.Topo.HostLink.Float() +
		cfg.Topo.BaseRTT().Seconds()
	for b, fct := range res.BurstFCTs {
		if math.Abs(fct-ideal)/ideal > 0.1 {
			t.Errorf("burst %d completion %.4gs, want ≈ %.4gs (±10%%)", b, fct, ideal)
		}
	}
	// Every record carries the documented fan-in ideal — no NaNs, so
	// downstream slowdown percentiles stay real numbers. Regression:
	// IdealFCT used to be stamped math.NaN().
	for i, rec := range res.Records {
		if math.IsNaN(rec.IdealFCT) || math.IsNaN(rec.FCT) {
			t.Fatalf("record %d has NaN: %+v", i, rec)
		}
		if math.Abs(rec.IdealFCT-ideal)/ideal > 1e-9 {
			t.Errorf("record %d IdealFCT = %v, want fan-in ideal %v", i, rec.IdealFCT, ideal)
		}
		if slow := rec.FCT / rec.IdealFCT; math.IsNaN(slow) || slow <= 0 {
			t.Errorf("record %d slowdown = %v, want positive", i, slow)
		}
	}
	if res.Stats.Events == 0 {
		t.Error("engine stats not surfaced in IncastResult")
	}
}

// TestRunIncastLeapSingleBurst: a one-burst config with the Interval
// left zero (meaningless for a single burst) must not divide by zero.
func TestRunIncastLeapSingleBurst(t *testing.T) {
	cfg := DefaultIncast()
	cfg.Bursts = 1
	cfg.Interval = 0
	res := RunIncastLeap(cfg)
	if res.Unfinished != 0 || len(res.BurstFCTs) != 1 || res.BurstFCTs[0] <= 0 {
		t.Fatalf("single burst: %d unfinished, bursts %v", res.Unfinished, res.BurstFCTs)
	}
}

// TestExpandFaultsHostileInput: every malformed scripted fault is a
// defined error naming what is wrong, never a panic, and an empty
// script expands to no faults.
func TestExpandFaultsHostileInput(t *testing.T) {
	ft := fluid.NewFatTree(4, 10e9) // 16 hosts, 4 pods of 2+2 switches, 4 cores
	ms := sim.Millisecond
	for _, c := range []struct {
		name string
		in   workload.ScriptedFault
		want string
	}{
		{"unknown kind", workload.ScriptedFault{Target: "spine0", At: ms}, "unknown kind"},
		{"no index", workload.ScriptedFault{Target: "link", At: ms}, "bad index"},
		{"negative index", workload.ScriptedFault{Target: "link-1", At: ms}, "bad index"},
		{"link out of range", workload.ScriptedFault{Target: fmt.Sprintf("link%d", ft.Net.Links()), At: ms}, "link out of range"},
		{"host out of range", workload.ScriptedFault{Target: "host16", At: ms}, "host out of range"},
		{"pod out of range", workload.ScriptedFault{Target: "agg4.0", At: ms}, "want pod < 4"},
		{"switch out of range", workload.ScriptedFault{Target: "edge0.2", At: ms}, "switch < 2"},
		{"edge without switch", workload.ScriptedFault{Target: "edge0", At: ms}, "want edgeP.N"},
		{"core out of range", workload.ScriptedFault{Target: "core4", At: ms}, "core out of range"},
		{"negative time", workload.ScriptedFault{Target: "link0", At: -ms}, "negative time"},
		{"NaN time", workload.ScriptedFault{Target: "link0", At: sim.Seconds(math.NaN())}, "overflows the simulated clock"},
		{"infinite time", workload.ScriptedFault{Target: "link0", At: sim.Seconds(math.Inf(1))}, "overflows the simulated clock"},
		{"downtime past the clock", workload.ScriptedFault{Target: "link0", At: ms, Down: sim.Duration(sim.Forever)}, "overflows the simulated clock"},
		{"recover before fail", workload.ScriptedFault{Target: "link0", At: 2 * ms, Down: -ms}, "recovery before failure"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := ExpandFaults(ft, []workload.ScriptedFault{{Target: "core0", At: ms, Down: ms}, c.in})
			if err == nil || !strings.Contains(err.Error(), c.want) || out != nil {
				t.Errorf("ExpandFaults = %v, %v; want an error containing %q", out, err, c.want)
			}
		})
	}
	for _, empty := range [][]workload.ScriptedFault{nil, {}} {
		if out, err := ExpandFaults(ft, empty); out != nil || err != nil {
			t.Errorf("ExpandFaults(%v) = %v, %v; want no faults", empty, out, err)
		}
	}
}
