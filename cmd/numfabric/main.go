// Command numfabric runs the paper's experiments from the command
// line and prints the tables/series each figure plots.
//
// Usage:
//
//	numfabric -experiment fig4a [-scale full] [-seed 1] [-engine fluid]
//
// Experiments (the table in this file is the one list; "all" runs
// them in order): table1, table2, fig2, fig4a, fig4bc, fig5a, fig5b,
// fig6a, fig6b, fig6c, fig7, fig8, fig9, fig10, fattree, fluidsweep,
// fluidpooling, leapfct, leapfail.
//
// leapfail injects link failures into the leap engine: a seeded random
// failure/recovery process swept across failure rates, or — with
// -faults "target@time[+downtime],..." — a scripted list of link/
// switch faults (targets linkN, hostN, edgeP.E, aggP.A, coreC). -faults
// with any other experiment is an error, not a silently healthy fabric,
// and so is a list that does not parse or resolve — before anything runs.
//
// -engine selects the execution engine for the convergence (fig4a),
// dynamic-workload (fig5a/fig5b), FCT (fig7), and resource-pooling
// (fig8) experiments: "packet" is the faithful packet-level
// discrete-event simulator; "fluid" runs the same scenarios on the
// flow-granularity fluid engine (internal/fluid), orders of magnitude
// faster; "leap" runs them event-driven (internal/leap) — time jumps
// straight to the next arrival or completion, the only way to reach
// million-flow dynamic workloads. fig4a and fig8 sample unbounded
// flows' rates over time, which leap cannot do; asked for leap they run
// its allocators on the epoch engine and their header says so. An
// unknown -engine or -experiment value is an error that lists the
// valid ones, and so is a -scale other than "scaled" or "full", and so
// is a -trace-out, -flowtrace-out or -memprofile path that cannot be
// created: each exits 2 before any experiment starts. Four experiments
// are fluid/leap-only — they run regimes the packet engine cannot reach:
// fattree (a k=8 fat-tree serving ≥50k flows), fluidsweep (a
// multi-seed convergence sweep fanned across goroutines),
// fluidpooling (multipath aggregate groups pooling ≥10k ECMP subflows
// on a fat-tree), and leapfct (the event-driven FCT sweep; -scale
// full runs a million-flow workload).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/harness"
	"numfabric/internal/obs"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
	"numfabric/internal/trace"
	"numfabric/internal/workload"
)

// outDir, when set via -out, receives CSV files with the series behind
// each figure.
var outDir string

// engine is the execution engine selected via -engine.
var engine harness.Engine

// scriptedFaults is the -faults list, parsed and expanded against
// leapfail's fat-tree by checkFlags: non-nil selects the experiment's
// scripted mode.
var scriptedFaults []workload.Fault

// cliObs holds the observability hooks built from -debug-addr and
// -trace-out; experiments hand it to every engine they build. With
// neither flag set every hook is nil and the engines skip all
// instrumentation. Profilers stay per-run (runLeapFCT attaches a fresh
// one per load), so cliObs never carries one.
var cliObs obs.Hooks

// writeCSV writes a table into outDir (no-op when -out is unset).
func writeCSV(name string, t *trace.Table) {
	if outDir == "" {
		return
	}
	path := filepath.Join(outDir, name)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

// experiments is the one list of experiment ids: the -experiment help
// string, the validity check and the dispatch (in this order, for
// "all") all read it.
var experiments = []struct {
	id string
	fn func(full bool, seed uint64)
}{
	{"table1", runTable1},
	{"table2", runTable2},
	{"fig2", runFig2},
	{"fig4a", runFig4a},
	{"fig4bc", runFig4bc},
	{"fig5a", func(f bool, s uint64) { runFig5(f, s, workload.WebSearch()) }},
	{"fig5b", func(f bool, s uint64) { runFig5(f, s, workload.Enterprise()) }},
	{"fig6a", runFig6a},
	{"fig6b", runFig6b},
	{"fig6c", runFig6c},
	{"fig7", runFig7},
	{"fig8", runFig8},
	{"fig9", runFig9},
	{"fig10", runFig10},
	{"fattree", runFatTree},
	{"fluidsweep", runFluidSweep},
	{"fluidpooling", runFluidPooling},
	{"leapfct", runLeapFCT},
	{"leapfail", runLeapFail},
}

// experimentIDs lists every valid -experiment value.
func experimentIDs() string {
	var b strings.Builder
	for _, e := range experiments {
		b.WriteString(e.id + ", ")
	}
	return b.String() + "all"
}

// checkFlags rejects an -experiment outside the table, a -faults list
// on an experiment that would ignore it, and a list that does not
// parse or names something leapfail's fat-tree does not have; it
// returns the list expanded to link faults (nil without -faults).
func checkFlags(exp, faults string) ([]workload.Fault, error) {
	known := exp == "all"
	for _, e := range experiments {
		known = known || e.id == exp
	}
	if !known {
		return nil, fmt.Errorf("unknown experiment %q (valid experiments: %s)", exp, experimentIDs())
	}
	if faults == "" {
		return nil, nil
	}
	if exp != "leapfail" && exp != "all" {
		return nil, fmt.Errorf("-faults applies to the leapfail experiment only; %s would run on a healthy fabric", exp)
	}
	scripted, err := workload.ParseFaults(faults)
	if err == nil && len(scripted) == 0 {
		err = fmt.Errorf("-faults %q names no fault", faults)
	}
	if err != nil {
		return nil, err
	}
	return harness.ExpandFaults(leapFailTree(), scripted)
}

// flowTraceConfig is the flow tracer -flowtrace-sample and
// -flowtrace-slowest ask for: a sample fraction in [0, 1] and a
// reservoir of slowest flows, 0 meaning none (the config reads 0 as its
// default of 64, so 0 goes in as the negative that disables it).
func flowTraceConfig(sample float64, slowest int) (obs.FlowTraceConfig, error) {
	switch {
	case !(sample >= 0 && sample <= 1):
		return obs.FlowTraceConfig{}, fmt.Errorf("-flowtrace-sample %v: want a fraction in [0, 1]", sample)
	case slowest < 0:
		return obs.FlowTraceConfig{}, fmt.Errorf("-flowtrace-slowest %d: want a count, 0 for none", slowest)
	case slowest == 0:
		slowest = -1
	}
	return obs.FlowTraceConfig{SampleRate: sample, SlowestK: slowest}, nil
}

// createOutput creates the file an output flag names, nil for an unset
// flag; a path that cannot be created exits 2 naming the flag.
func createOutput(name, path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(2)
	}
	return f
}

func main() {
	exp := flag.String("experiment", "all", "experiment id ("+experimentIDs()+")")
	scale := flag.String("scale", "scaled", "\"scaled\" (32 hosts, fast) or \"full\" (paper scale, slow)")
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("out", "", "directory for CSV output (optional)")
	eng := flag.String("engine", "packet", "\"packet\" (discrete-event simulator), \"fluid\" (flow-level fast path), or \"leap\" (event-driven fast path) for fig4a/fig5a/fig5b/fig7/fig8")
	faults := flag.String("faults", "", "scripted faults for the leapfail experiment: comma-separated target@time[+downtime] entries, e.g. \"link12@10ms+5ms,agg0.1@20ms\" (targets linkN, hostN, edgeP.E, aggP.A, coreC; no downtime = permanent)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /progress, /debug/pprof and /debug/vars on this address while experiments run (e.g. localhost:6060)")
	debugHold := flag.Duration("debug-hold", 0, "keep the -debug-addr server alive this long after the experiments finish")
	traceOut := flag.String("trace-out", "", "write a Chrome-trace (chrome://tracing / Perfetto) timeline of engine batches and component solves to this file")
	ftOut := flag.String("flowtrace-out", "", "write a JSONL flow-lifecycle trace — sampled flow records with per-segment bottleneck links, per-link utilization, slowdown attribution; analyze with cmd/flowreport (leapfct writes the sweep's last load)")
	ftSample := flag.Float64("flowtrace-sample", 0.01, "deterministic per-flow-id fraction of completions kept in the flow trace (1 = every flow; the slowest flows are kept regardless)")
	ftSlowest := flag.Int("flowtrace-slowest", 64, "slowest-flow reservoir size for the flow trace: this many worst slowdowns are always kept, independent of sampling (0: none)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()
	outDir = *out
	var err error
	if engine, err = harness.ParseEngine(*eng); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *scale != "scaled" && *scale != "full" {
		fmt.Fprintf(os.Stderr, "unknown scale %q (valid scales: scaled, full)\n", *scale)
		os.Exit(2)
	}
	if *debugHold < 0 {
		fmt.Fprintf(os.Stderr, "-debug-hold %v: want a duration ≥ 0\n", *debugHold)
		os.Exit(2)
	}
	if scriptedFaults, err = checkFlags(*exp, *faults); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ftCfg, err := flowTraceConfig(*ftSample, *ftSlowest)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The files the run writes at its end are created now, so a path that
	// cannot be written stops it before the first experiment.
	traceFile := createOutput("-trace-out", *traceOut)
	ftFile := createOutput("-flowtrace-out", *ftOut)
	memFile := createOutput("-memprofile", *memprofile)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote %s\n", *cpuprofile)
		}()
	}
	if memFile != nil {
		defer func() {
			runtime.GC()
			if err := errors.Join(pprof.WriteHeapProfile(memFile), memFile.Close()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Printf("wrote %s\n", memFile.Name())
		}()
	}

	// The debug server, trace writer, and flow tracer share one hook
	// set: the server encodes /metrics and /progress from the live hook
	// (and serves /flows and /links off the same tracer the export
	// writes), the trace file needs the span recorder, and an engine fed
	// all of them costs nothing extra.
	if *debugAddr != "" || *traceOut != "" || *ftOut != "" {
		cliObs.Live = obs.NewLive()
		if *traceOut != "" {
			cliObs.Tracer = obs.NewTracer()
		}
		if *ftOut != "" || *debugAddr != "" {
			cliObs.FlowTrace = obs.NewFlowTracer(ftCfg)
		}
		if *debugAddr != "" {
			ln, err := obs.Serve(*debugAddr, cliObs.Live, cliObs.FlowTrace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer ln.Close()
			fmt.Printf("debug server on http://%s (/metrics, /progress, /flows, /links, /debug/pprof)\n", ln.Addr())
			if *debugHold > 0 {
				defer func() {
					fmt.Printf("holding debug server for %v\n", *debugHold)
					time.Sleep(*debugHold)
				}()
			}
		}
		if traceFile != nil {
			defer func() {
				if err := errors.Join(cliObs.Tracer.Write(traceFile), traceFile.Close()); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return
				}
				fmt.Printf("wrote %s (%d spans)\n", traceFile.Name(), cliObs.Tracer.TotalSpans())
			}()
		}
		if ftFile != nil {
			defer func() {
				if err := errors.Join(cliObs.FlowTrace.WriteJSONL(ftFile), ftFile.Close()); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return
				}
				s := cliObs.FlowTrace.Summary()
				fmt.Printf("wrote %s (%d flows tracked, %d kept + %d reservoir)\n",
					ftFile.Name(), s.Tracked, s.Kept, s.Reservoir)
			}()
		}
	}

	for _, e := range experiments {
		if *exp == e.id || *exp == "all" {
			fmt.Printf("\n=== %s ===\n", e.id)
			e.fn(*scale == "full", *seed)
		}
	}
}

func semiCfg(s harness.Scheme, full bool, seed uint64) harness.SemiDynamicConfig {
	var cfg harness.SemiDynamicConfig
	if full {
		cfg = harness.PaperSemiDynamic(s)
	} else {
		cfg = harness.DefaultSemiDynamic(s)
	}
	cfg.Seed = seed
	return cfg
}

func runTable1(full bool, seed uint64) {
	fmt.Println("Utility families (Table 1) and the single-link allocations they induce")
	fmt.Println("(two flows, 10G link; rates from the Oracle NUM solver):")
	show := func(name string, u1, u2 core.Utility) {
		p := core.NewProblem([]float64{10e9})
		p.AddFlow([]int{0}, u1)
		p.AddFlow([]int{0}, u2)
		res := oracle.Solve(p, oracle.SolveOptions{})
		fmt.Printf("  %-34s -> %5.2fG / %5.2fG\n", name, res.Rates[0]/1e9, res.Rates[1]/1e9)
	}
	show("alpha-fair (a=1), equal", core.NewAlphaFair(1), core.NewAlphaFair(1))
	show("weighted alpha-fair (w=1 vs w=3)", core.NewWeightedAlphaFair(1, 1), core.NewWeightedAlphaFair(1, 3))
	show("FCT-min (10KB vs 10MB flows)", core.FCTMin(10<<10, 0.125), core.FCTMin(10<<20, 0.125))
	show("bandwidth functions (Fig. 2)", core.NewBWUtility(harness.Fig2Flow1(), 5), core.NewBWUtility(harness.Fig2Flow2(), 5))

	p := core.NewProblem([]float64{10e9, 10e9})
	g := p.AddAggregate(core.ProportionalFair())
	p.AddSubflow(g, []int{0})
	p.AddSubflow(g, []int{1})
	res := oracle.Solve(p, oracle.SolveOptions{})
	fmt.Printf("  %-34s -> %5.2fG aggregate over two 10G paths\n",
		"resource pooling (2 subflows)", (res.Rates[0]+res.Rates[1])/1e9)
}

func runTable2(full bool, seed uint64) {
	topo := harness.ScaledTopology()
	if full {
		topo = harness.PaperTopology()
	}
	rtt := topo.BaseRTT()
	cfg := harness.DefaultConfig(harness.NUMFabric, topo)
	fmt.Println("Default parameters (Table 2):")
	fmt.Printf("  NUMFabric: ewmaTime=%v dt=%v priceUpdateInterval=%v eta=%g beta=%g\n",
		cfg.NUMFabric.EWMATime, cfg.NUMFabric.DT, cfg.NUMFabric.PriceUpdateInterval,
		cfg.NUMFabric.Eta, cfg.NUMFabric.Beta)
	fmt.Printf("  DGD:       priceUpdateInterval=%v gains a=%g b=%g (normalized)\n",
		cfg.DGD.UpdateInterval, cfg.DGD.GainA, cfg.DGD.GainB)
	fmt.Printf("  RCP*:      rateUpdateInterval=%v gains a=%g b=%g\n",
		cfg.RCP.UpdateInterval, cfg.RCP.GainA, cfg.RCP.GainB)
	fmt.Printf("  network:   baseRTT=%v buffer=%dB/port\n", rtt, cfg.BufferBytes)
}

func runFig2(full bool, seed uint64) {
	fmt.Println("BwE water-filling (Figure 2): two flows, link 10G then 25G")
	funcs := []*core.BandwidthFunction{harness.Fig2Flow1(), harness.Fig2Flow2()}
	for _, c := range []float64{10e9, 25e9} {
		x := oracle.BwESingleLink(c, funcs)
		fmt.Printf("  C=%2.0fG: flow1=%5.2fG flow2=%5.2fG\n", c/1e9, x[0]/1e9, x[1]/1e9)
	}
}

func runFig4a(full bool, seed uint64) {
	fmt.Printf("Convergence-time CDF (Figure 4a, %s engine); times in ms:\n", sampledEngine())
	fmt.Printf("%-10s %8s %8s %8s %12s\n", "scheme", "median", "p95", "max", "unconverged")
	type row struct {
		name string
		res  harness.SemiDynamicResult
	}
	var rows []row
	for _, s := range []harness.Scheme{harness.NUMFabric, harness.DGD, harness.RCP} {
		res := harness.RunSemiDynamicWith(engine, semiCfg(s, full, seed))
		rows = append(rows, row{s.String(), res})
		ct := res.ConvergenceTimes
		sort.Float64s(ct)
		fmt.Printf("%-10s %8.3f %8.3f %8.3f %8d/%d\n",
			s.String(), res.Median()*1e3, res.P95()*1e3,
			maxOr(ct)*1e3, res.Unconverged, res.Events)
	}
	if len(rows) >= 2 && rows[0].res.Median() > 0 {
		fmt.Printf("\nspeedup vs DGD at median: %.2fx (paper: ~2.3x)\n",
			rows[1].res.Median()/rows[0].res.Median())
	}
	fmt.Println("\nCDF points (NUMFabric):")
	for _, pt := range rows[0].res.CDF() {
		fmt.Printf("  %.3fms %.2f\n", pt.X*1e3, pt.P)
	}
	for _, rw := range rows {
		writeCSV("fig4a_cdf_"+rw.name+".csv", trace.FromCDF(rw.res.CDF(), "convergence_s"))
	}
}

// sampledEngine returns the engine a rate-sampling experiment (fig4a,
// fig8) runs under -engine, for its header; when that is not the one
// asked for it first says why, on a line of its own.
func sampledEngine() harness.Engine {
	ran, why := harness.SampledEngine(engine)
	if why != "" {
		fmt.Printf("-engine %s: %s\n", engine, why)
	}
	return ran
}

func maxOr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func runFig4bc(full bool, seed uint64) {
	fmt.Println("Rate of a typical flow (Figures 4b/4c); EWMA-filtered, 100 µs samples:")
	for _, s := range []harness.Scheme{harness.DCTCP, harness.NUMFabric} {
		cfg := semiCfg(s, full, seed)
		cfg.Events = 4
		tr := harness.RunRateTrace(cfg, 0, 100*sim.Microsecond)
		fmt.Printf("\n%s: t(ms) rate(Gbps) oracle(Gbps)\n", s)
		step := len(tr.Times) / 24
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(tr.Times); i += step {
			fmt.Printf("  %6.2f  %6.2f  %6.2f\n",
				tr.Times[i]*1e3, tr.Rates[i]/1e9, tr.OracleRates[i]/1e9)
		}
		tab := trace.NewTable("time_s", "rate_bps", "oracle_bps")
		for i := range tr.Times {
			_ = tab.Append(tr.Times[i], tr.Rates[i], tr.OracleRates[i])
		}
		writeCSV("fig4bc_trace_"+s.String()+".csv", tab)
	}
}

func runFig5(full bool, seed uint64, cdf *workload.SizeCDF) {
	fmt.Printf("Normalized rate deviation from Oracle by flow size (Figure 5, %s, %s engine):\n", cdf.Name(), engine)
	flows := 400
	if full {
		flows = 2000
	}
	for _, s := range []harness.Scheme{harness.NUMFabric, harness.DGD, harness.RCP} {
		cfg := harness.DefaultDynamic(s, cdf, 0.4)
		cfg.Flows = flows
		cfg.Seed = seed
		cfg.Obs = cliObs
		if full {
			cfg.Topo = harness.PaperTopology()
			cfg.Scheme = harness.DefaultConfig(s, cfg.Topo)
		}
		res := harness.RunDynamicWith(engine, cfg)
		fmt.Printf("\n%s (%d finished, %d unfinished):\n", s, len(res.Records), res.Unfinished)
		bins := res.DeviationByBin()
		for _, b := range harness.Fig5Bins {
			if sum, ok := bins[b.Label]; ok {
				fmt.Printf("  %-10s n=%-4d median=%+.2f p25=%+.2f p75=%+.2f\n",
					b.Label, sum.N, sum.Median, sum.P25, sum.P75)
			}
		}
	}
}

func runFig6a(full bool, seed uint64) {
	fmt.Println("Sensitivity to dt (Figure 6a):")
	base := semiCfg(harness.NUMFabric, full, seed)
	dts := []sim.Duration{3 * sim.Microsecond, 6 * sim.Microsecond,
		12 * sim.Microsecond, 18 * sim.Microsecond, 24 * sim.Microsecond}
	for _, pt := range harness.SweepDT(base, dts) {
		fmt.Printf("  dt=%4.0fus median=%.3fms unconverged=%d\n",
			pt.Param, pt.MedianConvergence*1e3, pt.Unconverged)
	}
}

func runFig6b(full bool, seed uint64) {
	fmt.Println("Sensitivity to price update interval (Figure 6b):")
	base := semiCfg(harness.NUMFabric, full, seed)
	ivs := []sim.Duration{30 * sim.Microsecond, 60 * sim.Microsecond,
		90 * sim.Microsecond, 128 * sim.Microsecond}
	for _, pt := range harness.SweepPriceInterval(base, ivs) {
		fmt.Printf("  interval=%4.0fus median=%.3fms unconverged=%d\n",
			pt.Param, pt.MedianConvergence*1e3, pt.Unconverged)
	}
}

func runFig6c(full bool, seed uint64) {
	fmt.Println("Sensitivity to alpha, 1x vs 2x-slowed (Figure 6c):")
	base := semiCfg(harness.NUMFabric, full, seed)
	alphas := []float64{0.5, 1, 2, 4}
	normal, slowed := harness.SweepAlpha(base, alphas, 2)
	for i := range normal {
		fmt.Printf("  alpha=%-4g 1x: median=%.3fms unconv=%d | 2x: median=%.3fms unconv=%d\n",
			normal[i].Param, normal[i].MedianConvergence*1e3, normal[i].Unconverged,
			slowed[i].MedianConvergence*1e3, slowed[i].Unconverged)
	}
}

func runFig7(full bool, seed uint64) {
	fmt.Printf("FCT vs pFabric on the web-search workload (Figure 7, %s engine):\n", engine)
	cfg := harness.DefaultFCT()
	cfg.Seed = seed
	cfg.Obs = cliObs
	if full {
		cfg.Topo = harness.PaperTopology()
		cfg.FlowsPerLoad = 2000
	}
	fmt.Printf("%-6s %-10s %10s %10s %10s\n", "load", "scheme", "meanNorm", "medianNorm", "p95Norm")
	for _, load := range cfg.Loads {
		for _, s := range []harness.Scheme{harness.NUMFabric, harness.PFabric} {
			pt := harness.RunFCTWith(engine, cfg, s, load)
			fmt.Printf("%-6.1f %-10s %10.2f %10.2f %10.2f\n",
				load, pt.Scheme, pt.MeanNormFCT, pt.MedianNormFCT, pt.P95NormFCT)
		}
	}
}

func runFig8(full bool, seed uint64) {
	fmt.Printf("Resource pooling (Figure 8, %s engine):\n", sampledEngine())
	fmt.Printf("%-9s %-8s %8s %8s\n", "subflows", "pooling", "total%", "Jain")
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		for _, pool := range []bool{true, false} {
			cfg := harness.DefaultPooling(k, pool)
			cfg.Seed = seed
			res := harness.RunPoolingWith(engine, cfg)
			fmt.Printf("%-9d %-8v %7.1f%% %8.3f\n", k, pool, res.TotalThroughputPct(), res.JainIndex())
		}
	}
}

func runFig9(full bool, seed uint64) {
	fmt.Println("Bandwidth-function capacity sweep (Figure 9):")
	var caps []sim.BitRate
	for c := int64(5); c <= 35; c += 5 {
		caps = append(caps, sim.BitRate(c)*sim.Gbps)
	}
	measure := 12 * sim.Millisecond
	if full {
		measure = 30 * sim.Millisecond
	}
	tab := trace.NewTable("capacity_bps", "flow1_bps", "want1_bps", "flow2_bps", "want2_bps")
	for _, pt := range harness.RunBWFCapacitySweep(caps, 5, measure) {
		fmt.Printf("  C=%4.0fG  flow1 %5.2f/%5.2f  flow2 %5.2f/%5.2f  (meas/want Gbps)\n",
			pt.Capacity/1e9, pt.Flow1/1e9, pt.Want1/1e9, pt.Flow2/1e9, pt.Want2/1e9)
		_ = tab.Append(pt.Capacity, pt.Flow1, pt.Want1, pt.Flow2, pt.Want2)
	}
	writeCSV("fig9_sweep.csv", tab)
}

func runFig10(full bool, seed uint64) {
	fmt.Println("Bandwidth functions + resource pooling across a capacity step (Figure 10):")
	samples := harness.RunBWFPooling(5, 20*sim.Millisecond, 40*sim.Millisecond, 2*sim.Millisecond)
	tab := trace.NewTable("time_s", "flow1_bps", "flow2_bps")
	for _, s := range samples {
		fmt.Printf("  t=%5.1fms flow1=%5.2fG flow2=%5.2fG\n",
			float64(s.At)/1e9, s.Flow1/1e9, s.Flow2/1e9)
		_ = tab.Append(s.At.Seconds(), s.Flow1, s.Flow2)
	}
	writeCSV("fig10_timeseries.csv", tab)
	fmt.Println("expected: (10, 3) before 20ms, (15, 10) after")
}
