package paper

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"numfabric/internal/harness"
	"numfabric/internal/sim"
	"numfabric/internal/trace"
)

// semiCfg is the §6.1 semi-dynamic scenario for scheme s: the scaled
// form below Full, the paper's at Full.
func semiCfg(scheme harness.Scheme, s Scale, seed uint64) harness.SemiDynamicConfig {
	cfg := harness.DefaultSemiDynamic(scheme)
	if s == Full {
		cfg = harness.PaperSemiDynamic(scheme)
	}
	cfg.Seed = seed
	return cfg
}

func fig4a(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintf(env, "Convergence-time CDF (Figure 4a, %s engine); times in ms:\n", sampledEngine(env))
	fmt.Fprintf(env, "%-10s %8s %8s %8s %12s\n", "scheme", "median", "p95", "max", "unconverged")
	m := Metrics{}
	schemes := []harness.Scheme{harness.NUMFabric, harness.DGD, harness.RCP}
	var res []harness.SemiDynamicResult
	for _, scheme := range schemes {
		cfg := semiCfg(scheme, s, seed)
		if s == Short {
			cfg.Events = 6
		}
		r := harness.RunSemiDynamicWith(env.Engine, cfg)
		res = append(res, r)
		ct := r.ConvergenceTimes
		sort.Float64s(ct)
		fmt.Fprintf(env, "%-10s %8.3f %8.3f %8.3f %8d/%d\n",
			scheme, r.Median()*1e3, r.P95()*1e3, maxOr(ct)*1e3, r.Unconverged, r.Events)
		name := strings.TrimSuffix(scheme.String(), "*")
		m[name+"/median-ms"] = r.Median() * 1e3
		m[name+"/p95-ms"] = r.P95() * 1e3
		m[name+"/unconverged"] = float64(r.Unconverged)
	}
	if res[0].Median() > 0 {
		fmt.Fprintf(env, "\nspeedup vs DGD at median: %.2fx (paper: ~2.3x)\n", res[1].Median()/res[0].Median())
	}
	fmt.Fprintln(env, "\nCDF points (NUMFabric):")
	for _, pt := range res[0].CDF() {
		fmt.Fprintf(env, "  %.3fms %.2f\n", pt.X*1e3, pt.P)
	}
	for i, scheme := range schemes {
		env.writeCSV("fig4a_cdf_"+scheme.String()+".csv", trace.FromCDF(res[i].CDF(), "convergence_s"))
	}
	return m
}

// sampledEngine returns the engine a rate-sampling experiment (fig4a,
// fig8) runs under env.Engine, for its header; when that is not the
// one asked for it first says why, on a line of its own.
func sampledEngine(env Env) harness.Engine {
	ran, why := harness.SampledEngine(env.Engine)
	if why != "" {
		fmt.Fprintf(env, "-engine %s: %s\n", env.Engine, why)
	}
	return ran
}

func maxOr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// fig4bc samples one flow's rate under DCTCP and under NUMFabric; its
// metric is the share of samples within 10 % of the Oracle rate — near
// zero for DCTCP (Figure 4b: "DCTCP flows essentially never
// converge"), high for NUMFabric (Figure 4c).
func fig4bc(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintln(env, "Rate of a typical flow (Figures 4b/4c); EWMA-filtered, 100 µs samples:")
	m := Metrics{}
	for _, scheme := range []harness.Scheme{harness.DCTCP, harness.NUMFabric} {
		cfg := semiCfg(scheme, s, seed)
		cfg.Events = 4
		if s == Short {
			cfg.Events = 3
		}
		tr := harness.RunRateTrace(cfg, 0, 100*sim.Microsecond)
		fmt.Fprintf(env, "\n%s: t(ms) rate(Gbps) oracle(Gbps)\n", scheme)
		step := max(len(tr.Times)/24, 1)
		for i := 0; i < len(tr.Times); i += step {
			fmt.Fprintf(env, "  %6.2f  %6.2f  %6.2f\n",
				tr.Times[i]*1e3, tr.Rates[i]/1e9, tr.OracleRates[i]/1e9)
		}
		tab := trace.NewTable("time_s", "rate_bps", "oracle_bps")
		within := 0
		for i := range tr.Times {
			_ = tab.Append(tr.Times[i], tr.Rates[i], tr.OracleRates[i])
			if o := tr.OracleRates[i]; o > 0 && math.Abs(tr.Rates[i]-o)/o <= 0.10 {
				within++
			}
		}
		env.writeCSV("fig4bc_trace_"+scheme.String()+".csv", tab)
		m[scheme.String()+"/samples-within-10pct-%"] = float64(within) / float64(max(len(tr.Rates), 1)) * 100
	}
	return m
}

// fig6a: median convergence versus the window slack dt. Too small a dt
// leaves flows without queued packets at their bottleneck (events fail
// to converge); too large a dt builds queues and slows convergence.
func fig6a(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintln(env, "Sensitivity to dt (Figure 6a):")
	cfg := semiCfg(harness.NUMFabric, s, seed)
	dts := []sim.Duration{3, 6, 12, 18, 24} // µs
	if s == Short {
		cfg.Events, dts = 4, []sim.Duration{6, 12, 24}
	}
	m := Metrics{}
	for _, dt := range dts {
		c := cfg
		c.Scheme.NUMFabric.DT = dt * sim.Microsecond
		res := harness.RunSemiDynamicWith(harness.EnginePacket, c)
		fmt.Fprintf(env, "  dt=%4.0fus median=%.3fms unconverged=%d\n", float64(dt), res.Median()*1e3, res.Unconverged)
		m[fmt.Sprintf("median-ms@dt%dus", dt)] = res.Median() * 1e3
	}
	return m
}

// fig6b: median convergence versus the xWI price update interval
// (paper: 30–128 µs, about 2 RTTs is the sweet spot).
func fig6b(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintln(env, "Sensitivity to price update interval (Figure 6b):")
	cfg := semiCfg(harness.NUMFabric, s, seed)
	intervals := []sim.Duration{30, 60, 90, 128} // µs
	if s == Short {
		cfg.Events, intervals = 4, []sim.Duration{30, 60, 128}
	}
	m := Metrics{}
	for _, iv := range intervals {
		c := cfg
		c.Scheme.NUMFabric.PriceUpdateInterval = iv * sim.Microsecond
		res := harness.RunSemiDynamicWith(harness.EnginePacket, c)
		fmt.Fprintf(env, "  interval=%4.0fus median=%.3fms unconverged=%d\n", float64(iv), res.Median()*1e3, res.Unconverged)
		m[fmt.Sprintf("median-ms@%dus", iv)] = res.Median() * 1e3
	}
	return m
}

// fig6c: median convergence versus the α-fairness exponent, at normal
// speed and with the control loop slowed 2× (the paper's remedy for
// extreme α).
func fig6c(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintln(env, "Sensitivity to alpha, 1x vs 2x-slowed (Figure 6c):")
	cfg := semiCfg(harness.NUMFabric, s, seed)
	alphas := []float64{0.5, 1, 2, 4}
	if s == Short {
		cfg.Events, alphas = 3, []float64{0.5, 1, 2}
	}
	m := Metrics{}
	for _, a := range alphas {
		c := cfg
		c.Alpha = a
		normal := harness.RunSemiDynamicWith(harness.EnginePacket, c)
		c.Scheme.NUMFabric = c.Scheme.NUMFabric.Slowed(2)
		slowed := harness.RunSemiDynamicWith(harness.EnginePacket, c)
		fmt.Fprintf(env, "  alpha=%-4g 1x: median=%.3fms unconv=%d | 2x: median=%.3fms unconv=%d\n",
			a, normal.Median()*1e3, normal.Unconverged, slowed.Median()*1e3, slowed.Unconverged)
		m[fmt.Sprintf("1x-ms@a%d", int(a*10))] = normal.Median() * 1e3
		m[fmt.Sprintf("2x-ms@a%d", int(a*10))] = slowed.Median() * 1e3
	}
	return m
}

// ablationVariants are the runs ablations makes, the shipped one first.
var ablationVariants = []struct {
	name   string
	mutate func(*harness.SemiDynamicConfig)
}{
	{"shipped", func(*harness.SemiDynamicConfig) {}},
	{"all-gaps", func(c *harness.SemiDynamicConfig) { c.Scheme.NUMFabric.DisablePairProbing = true }},
	{"multiqueue8", func(c *harness.SemiDynamicConfig) { c.Scheme.UseMultiQueue, c.Scheme.MultiQueueBands = true, 8 }},
	{"beta1", func(c *harness.SemiDynamicConfig) { c.Scheme.NUMFabric.Beta = 0.01 }},
	{"beta90", func(c *harness.SemiDynamicConfig) { c.Scheme.NUMFabric.Beta = 0.9 }},
	{"eta1", func(c *harness.SemiDynamicConfig) { c.Scheme.NUMFabric.Eta = 1 }},
	{"eta20", func(c *harness.SemiDynamicConfig) { c.Scheme.NUMFabric.Eta = 20 }},
}

// ablations compares NUMFabric's shipped mechanisms with their ablated
// variants on the semi-dynamic convergence scenario (packet engine):
// packet-pair rate probing against sampling every inter-packet gap
// (§4.1: without pairs, window-starved flows cannot observe their WFQ
// entitlement), exact STFQ against 8 DRR bands (§8's commodity-switch
// approximation), the price-averaging β of Eq. 11, and the
// underutilization gain η (§6.2: xWI "is largely insensitive" to it).
// The shipped run is every ablation's baseline, reported under each
// baseline's name (pairs, stfq, beta50, eta5).
func ablations(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintln(env, "Design-choice ablations (NUMFabric semi-dynamic convergence, packet engine); times in ms:")
	fmt.Fprintf(env, "%-12s %8s %12s\n", "variant", "median", "unconverged")
	m := Metrics{}
	for _, v := range ablationVariants {
		cfg := semiCfg(harness.NUMFabric, s, seed)
		if s == Short {
			cfg.Events = 5
		}
		v.mutate(&cfg)
		res := harness.RunSemiDynamicWith(harness.EnginePacket, cfg)
		fmt.Fprintf(env, "%-12s %8.3f %8d/%d\n", v.name, res.Median()*1e3, res.Unconverged, res.Events)
		names := []string{v.name}
		if v.name == "shipped" {
			names = []string{"pairs", "stfq", "beta50", "eta5"}
		}
		for _, name := range names {
			m[name+"/median-ms"] = res.Median() * 1e3
			m[name+"/unconverged"] = float64(res.Unconverged)
		}
	}
	return m
}
