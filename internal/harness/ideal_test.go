package harness

import (
	"math"
	"testing"

	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/refsim"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// TestIdealLeapMatchesRefsim holds the two ways of computing the §6.1
// ideal together on the Figure 5 schedule (4,000 web-search flows at
// load 0.05, seeds 1–3): refsim, which re-solves the whole active set at
// every event, and the leap engine, which solves only the components an
// event touches and gives a lone flow its path's minimum capacity, both
// with &fluid.Oracle{MaxIter: 1500}. Every ideal FCT must agree within
// 1e-3 relative, and so must the median and p99 of the played records'
// FCT/IdealFCT. It logs the worst per-flow difference of each seed.
func TestIdealLeapMatchesRefsim(t *testing.T) {
	const tol = 1e-3
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultDynamic(NUMFabric, workload.WebSearch(), 0.05)
		cfg.Flows, cfg.Seed, cfg.SkipFluidIdeal = 4000, seed, true
		played := RunDynamicWith(EngineLeap, cfg)
		if played.Unfinished != 0 || len(played.Records) != cfg.Flows {
			t.Fatalf("seed %d: %d records, %d unfinished", seed, len(played.Records), played.Unfinished)
		}
		ref := idealsOn(cfg, func(net *fluid.Network) *flowLevel {
			return &flowLevel{eng: refsim.New(net, &fluid.Oracle{MaxIter: 1500})}
		})
		lp := idealsOn(cfg, func(net *fluid.Network) *flowLevel {
			eng := leap.NewEngine(net, leap.Config{Allocator: &fluid.Oracle{MaxIter: 1500}})
			return &flowLevel{eng: eng, leap: eng}
		})
		worst, at, moved := 0.0, 0, 0
		for i := range ref {
			if !(ref[i] > 0) || !(lp[i] > 0) {
				t.Fatalf("seed %d flow %d: ideal FCT refsim %g, leap %g", seed, i, ref[i], lp[i])
			}
			if ref[i] != lp[i] {
				moved++
			}
			if d := relDiff(lp[i], ref[i]); d > worst {
				worst, at = d, i
			}
		}
		t.Logf("seed %d: %d of %d ideal FCTs differ; worst relative difference %.3g (flow %d)", seed, moved, len(ref), worst, at)
		if worst > tol {
			t.Errorf("seed %d flow %d: ideal FCT refsim %g, leap %g: %.3g relative, want ≤ %g", seed, at, ref[at], lp[at], worst, tol)
		}
		slow := func(ideal []float64) []float64 {
			out := make([]float64, len(ideal))
			for i, r := range played.Records {
				out[i] = r.FCT / ideal[i]
			}
			return out
		}
		sr, sl := slow(ref), slow(lp)
		for _, q := range []float64{0.5, 0.99} {
			a, b := stats.Percentile(sr, q), stats.Percentile(sl, q)
			if d := relDiff(b, a); d > tol {
				t.Errorf("seed %d: FCT/IdealFCT quantile %g refsim %g, leap %g: %.3g relative, want ≤ %g", seed, q, a, b, d, tol)
			}
		}
	}
}

// idealsOn plays cfg's schedule on the flow-level engine newSub builds
// over the fabric's network and returns each arrival's FCT plus the
// base RTT, in arrival order.
func idealsOn(cfg DynamicConfig, newSub func(net *fluid.Network) *flowLevel) []float64 {
	fab := NewFluidTopology(cfg.Topo)
	sched := poissonStream(fab, cfg.CDF, cfg.Load, cfg.Flows, sim.NewRNG(cfg.Seed))
	sub := newSub(fab.network())
	sub.baseRTT = cfg.baseRTT()
	recs, _ := playArrivals(sub, fab, sched, cfg.utilityFor(), func(int64) float64 { return 0 }, sim.Forever)
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.FCT
	}
	return out
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
