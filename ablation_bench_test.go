package numfabric

// Ablation benchmarks for the design choices DESIGN.md's reproduction
// notes call out. Each compares the shipped mechanism against its
// ablated variant on the semi-dynamic convergence scenario; the
// reported metrics show why the mechanism exists.

import (
	"testing"

	"numfabric/internal/harness"
)

func ablationRun(b *testing.B, mutate func(*harness.SemiDynamicConfig)) harness.SemiDynamicResult {
	var res harness.SemiDynamicResult
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultSemiDynamic(harness.NUMFabric)
		cfg.Events = 5
		if mutate != nil {
			mutate(&cfg)
		}
		res = harness.RunSemiDynamicWith(harness.EnginePacket, cfg)
	}
	return res
}

// BenchmarkAblation_PacketPairProbing compares packet-pair-gap rate
// sampling (shipped) against sampling every inter-packet gap (the
// naive reading of §4.1). Without pairs, window-starved flows cannot
// observe their WFQ entitlement and events fail to converge.
func BenchmarkAblation_PacketPairProbing(b *testing.B) {
	b.Run("pairs", func(b *testing.B) {
		res := ablationRun(b, nil)
		b.ReportMetric(res.Median()*1e3, "median-ms")
		b.ReportMetric(float64(res.Unconverged), "unconverged")
	})
	b.Run("all-gaps", func(b *testing.B) {
		res := ablationRun(b, func(cfg *harness.SemiDynamicConfig) {
			cfg.Scheme.NUMFabric.DisablePairProbing = true
		})
		b.ReportMetric(res.Median()*1e3, "median-ms")
		b.ReportMetric(float64(res.Unconverged), "unconverged")
	})
}

// BenchmarkAblation_MultiQueueVsSTFQ compares exact STFQ against the
// §8 small-set-of-queues approximation (8 DRR bands). The
// approximation trades some convergence precision for commodity-
// switch implementability.
func BenchmarkAblation_MultiQueueVsSTFQ(b *testing.B) {
	b.Run("stfq", func(b *testing.B) {
		res := ablationRun(b, nil)
		b.ReportMetric(res.Median()*1e3, "median-ms")
		b.ReportMetric(float64(res.Unconverged), "unconverged")
	})
	b.Run("multiqueue8", func(b *testing.B) {
		res := ablationRun(b, func(cfg *harness.SemiDynamicConfig) {
			cfg.Scheme.UseMultiQueue = true
			cfg.Scheme.MultiQueueBands = 8
		})
		b.ReportMetric(res.Median()*1e3, "median-ms")
		b.ReportMetric(float64(res.Unconverged), "unconverged")
	})
}

// BenchmarkAblation_PriceAveraging sweeps the β price-averaging
// parameter of Eq. 11 ("we have found averaging to be important for
// improving system stability").
func BenchmarkAblation_PriceAveraging(b *testing.B) {
	for _, beta := range []float64{0.01, 0.5, 0.9} {
		beta := beta
		name := "beta" + itoa(int(beta*100))
		b.Run(name, func(b *testing.B) {
			res := ablationRun(b, func(cfg *harness.SemiDynamicConfig) {
				cfg.Scheme.NUMFabric.Beta = beta
			})
			b.ReportMetric(res.Median()*1e3, "median-ms")
			b.ReportMetric(float64(res.Unconverged), "unconverged")
		})
	}
}

// BenchmarkAblation_Eta confirms §6.2's claim that xWI "is largely
// insensitive" to the underutilization gain η.
func BenchmarkAblation_Eta(b *testing.B) {
	for _, eta := range []float64{1, 5, 20} {
		eta := eta
		b.Run("eta"+itoa(int(eta)), func(b *testing.B) {
			res := ablationRun(b, func(cfg *harness.SemiDynamicConfig) {
				cfg.Scheme.NUMFabric.Eta = eta
			})
			b.ReportMetric(res.Median()*1e3, "median-ms")
			b.ReportMetric(float64(res.Unconverged), "unconverged")
		})
	}
}
