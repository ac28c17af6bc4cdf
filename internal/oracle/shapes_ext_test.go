package oracle_test

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/oracle"
	"numfabric/internal/workload"
)

// TestOracleIdealShapes counts the Oracle solves of the Figure 5 ideal
// plays — 4,000 web-search flows at load 0.05 on seeds 1–3, played on
// the leap engine with &fluid.Oracle{MaxIter: 1500} as
// harness.FluidIdealFCTs plays them — by problem shape (singleton,
// star, other), with the iterations each shape takes and the laminar
// share of the others. Every star must take the closed form, one
// iteration, and every other the dual Newton can take must go to it
// first (certified, or handed to the iteration). -v logs them.
func TestOracleIdealShapes(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := harness.DefaultDynamic(harness.NUMFabric, workload.WebSearch(), 0.05)
		cfg.Flows, cfg.Seed = 4000, seed
		topo := harness.NewFluidTopology(cfg.Topo)
		arrivals, paths := fig5Schedule(cfg, topo)
		s := oracle.CountShapes(func() {
			eng := leap.NewEngine(harness.FluidNetwork(topo), leap.Config{Allocator: &fluid.Oracle{MaxIter: 1500}})
			for i, a := range arrivals {
				eng.AddFlow(paths[i], core.NewAlphaFair(cfg.Alpha), a.Size, a.At.Seconds())
			}
			eng.Run(math.Inf(1))
		})
		t.Logf("seed %d: %v", seed, s)
		if s.Solves[oracle.ShapeStar] == 0 || s.Solves[oracle.ShapeOther] == 0 {
			t.Fatalf("seed %d: %v: the play no longer exercises both shapes", seed, s)
		}
		if s.Iters[oracle.ShapeStar] != s.Solves[oracle.ShapeStar] {
			t.Errorf("seed %d: %v: a star took the iteration", seed, s)
		}
		if s.Newton+s.Fallback != s.Dual || s.Newton == 0 {
			t.Errorf("seed %d: %v: the dual-eligible others did not all go to the Newton", seed, s)
		}
	}
}
