package oracle_test

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/oracle"
	"numfabric/internal/refsim"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

// The Figure 5 ideal plays' certificate bounds. The iterated Oracle
// stops on a relative rate change below 1e-7, which is not a distance to
// the optimum: on seeds 1–3 its worst solve is feasible to 2e-16, meets
// the KKT conditions to 2.3e-5 and closes the duality gap to 1.7e-7, on
// either engine. The bounds leave 4–6×. A solve the dual Newton returns
// is certified by the Newton itself: never above a capacity, and KKT
// within newtonKKTTol.
const (
	idealFeasTol = 1e-15
	idealKKTTol  = 1e-4
	idealGapTol  = 1e-6
	newtonKKTTol = 1e-12
)

// TestOracleIdealsCertified certifies every Oracle solve of the plays
// TestIdealLeapMatchesRefsim (internal/harness) compares — the Figure 5
// schedule, 4,000 web-search flows at load 0.05 on seeds 1–3, through
// refsim and through the leap engine, each with &fluid.Oracle{MaxIter:
// 1500} — with internal/cert: the rates must be feasible, meet the KKT
// conditions and close the duality gap within the bounds above, and
// every solve the dual Newton returns within its own. -v logs the worst
// values.
func TestOracleIdealsCertified(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := harness.DefaultDynamic(harness.NUMFabric, workload.WebSearch(), 0.05)
		cfg.Flows, cfg.Seed, cfg.SkipFluidIdeal = 4000, seed, true
		topo := harness.NewFluidTopology(cfg.Topo)
		arrivals, paths := fig5Schedule(cfg, topo)
		played := harness.RunDynamicWith(harness.EngineLeap, cfg)
		if len(played.Records) != len(arrivals) {
			t.Fatalf("seed %d: %d arrivals drawn, the harness played %d", seed, len(arrivals), len(played.Records))
		}
		for i, r := range played.Records {
			if r.Size != arrivals[i].Size || r.Start != arrivals[i].At {
				t.Fatalf("seed %d arrival %d: drawn %+v, the harness played size %d at %v", seed, i, arrivals[i], r.Size, r.Start)
			}
		}
		for _, side := range []struct {
			name string
			eng  func(net *fluid.Network) idealEngine
		}{
			{"refsim", func(net *fluid.Network) idealEngine { return refsim.New(net, &fluid.Oracle{MaxIter: 1500}) }},
			{"leap", func(net *fluid.Network) idealEngine {
				return leap.NewEngine(net, leap.Config{Allocator: &fluid.Oracle{MaxIter: 1500}})
			}},
		} {
			c := oracle.CertifySolves(func() {
				eng := side.eng(fluid.NewNetwork(topo.Net.Capacities()))
				for i, a := range arrivals {
					eng.AddFlow(paths[i], core.NewAlphaFair(cfg.Alpha), a.Size, a.At.Seconds())
				}
				eng.Run(math.Inf(1))
			})
			t.Logf("seed %d %-6s: %5d solves (%d unconverged), worst feasibility %.3g (solve %d), worst KKT %.3g (solve %d), worst gap %.3g (solve %d)",
				seed, side.name, c.Solves, c.Unconverged, c.Feasibility, c.FeasAt, c.KKT, c.KKTAt, c.Gap, c.GapAt)
			if c.Solves == 0 || c.Feasibility > idealFeasTol || c.KKT > idealKKTTol || c.Gap > idealGapTol {
				t.Errorf("seed %d %s: %d solves, feasibility %.3g (want ≤ %g), KKT %.3g (want ≤ %g), gap %.3g (want ≤ %g)",
					seed, side.name, c.Solves, c.Feasibility, idealFeasTol, c.KKT, idealKKTTol, c.Gap, idealGapTol)
			}
			t.Logf("seed %d %-6s: %5d Newton solves, worst feasibility %.3g, worst KKT %.3g", seed, side.name, c.Newton, c.NewtonFeas, c.NewtonKKT)
			if c.Newton == 0 || c.NewtonFeas > 0 || c.NewtonKKT > newtonKKTTol {
				t.Errorf("seed %d %s: %d Newton solves, feasibility %.3g (want ≤ 0), KKT %.3g (want ≤ %g)",
					seed, side.name, c.Newton, c.NewtonFeas, c.NewtonKKT, newtonKKTTol)
			}
		}
	}
}

// idealEngine is what refsim.Sim and leap.Engine share.
type idealEngine interface {
	AddFlow(links []int, u core.Utility, sizeBytes int64, at float64) *fluid.Flow
	Run(until float64)
}

// fig5Schedule draws cfg's Poisson schedule as the harness does: every
// arrival from the seeded stream, then one spine pick per arrival from
// where the arrivals left it.
func fig5Schedule(cfg harness.DynamicConfig, topo *harness.Topology) ([]workload.Arrival, [][]int) {
	rng := sim.NewRNG(cfg.Seed)
	arrivals := workload.Poisson(workload.PoissonConfig{
		Hosts:    len(topo.Hosts),
		HostLink: cfg.Topo.HostLink,
		Load:     cfg.Load,
		CDF:      cfg.CDF,
		Duration: sim.Duration(sim.Forever / 2),
		MaxFlows: cfg.Flows,
	}, rng)
	paths := make([][]int, len(arrivals))
	for i, a := range arrivals {
		paths[i] = topo.Route(a.Src, a.Dst, rng.Intn(len(topo.Spines)))
	}
	return arrivals, paths
}
