// Package paper is the one table of the paper's evaluation (§6: Tables
// 1–2, Figures 2 and 4–10, the design-choice ablations) and of the
// fluid/leap-only experiments beyond it. Each entry runs its experiment
// at a scale and a seed, prints its report as it goes, writes the
// series behind it as CSV, and returns its headline numbers by name.
// cmd/numfabric prints the table's entries; the root BenchmarkPaper
// reports their metrics at Short scale.
package paper

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"numfabric/internal/core"
	"numfabric/internal/harness"
	"numfabric/internal/obs"
	"numfabric/internal/oracle"
	"numfabric/internal/trace"
	"numfabric/internal/transport"
	"numfabric/internal/workload"
)

// Scale sizes an experiment.
type Scale int

const (
	// Short is the reduced configuration the benchmarks run; it is
	// Scaled for an experiment that has no smaller form.
	Short Scale = iota
	// Scaled is the CLI's default: 32 hosts, seconds per experiment.
	Scaled
	// Full is the paper's scale: minutes and more.
	Full
)

// Metrics are an experiment's headline numbers, keyed by name (a
// benchmark metric unit: no spaces).
type Metrics map[string]float64

// Env is what an experiment reads besides its scale and seed.
type Env struct {
	// Writer receives the report, line by line as the run goes.
	io.Writer
	// OutDir, when set, receives a CSV of each figure's series.
	OutDir string
	// Engine runs the experiments that take one (TakesEngine).
	Engine harness.Engine
	// Obs holds the hooks every engine an experiment builds is given.
	// It carries no profiler: leapfct attaches a fresh one per load.
	Obs obs.Hooks
	// Faults, when non-nil, is leapfail's scripted fault list (expanded
	// against LeapFailTree) and replaces its sweep.
	Faults []workload.Fault
}

// Experiment is one entry of the table.
type Experiment struct {
	ID  string
	Run func(env Env, s Scale, seed uint64) Metrics
	// TakesEngine reports whether Run reads Env.Engine; every other
	// entry runs the engine it is written for.
	TakesEngine bool
}

// Experiments is the one list of experiments, in the order "all" runs
// them.
var Experiments = []Experiment{
	{"table1", table1, false},
	{"table2", table2, false},
	{"fig2", fig2, false},
	{"fig4a", fig4a, true},
	{"fig4bc", fig4bc, false},
	{"fig5a", func(env Env, s Scale, seed uint64) Metrics { return fig5(env, s, seed, workload.WebSearch()) }, true},
	{"fig5b", func(env Env, s Scale, seed uint64) Metrics { return fig5(env, s, seed, workload.Enterprise()) }, true},
	{"fig6a", fig6a, false},
	{"fig6b", fig6b, false},
	{"fig6c", fig6c, false},
	{"fig7", fig7, true},
	{"fig8", fig8, true},
	{"fig9", fig9, false},
	{"fig10", fig10, false},
	{"ablations", ablations, false},
	{"fattree", fatTree, false},
	{"fluidsweep", fluidSweep, false},
	{"fluidpooling", fluidPooling, false},
	{"leapfct", leapFCT, false},
	{"leapfail", leapFail, false},
}

// writeCSV writes a table into OutDir (no-op when it is unset).
func (env Env) writeCSV(name string, t *trace.Table) {
	if env.OutDir == "" {
		return
	}
	path := filepath.Join(env.OutDir, name)
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
	fmt.Fprintf(env, "wrote %s\n", path)
}

func table1(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintln(env, "Utility families (Table 1) and the single-link allocations they induce")
	fmt.Fprintln(env, "(two flows, 10G link; rates from the Oracle NUM solver):")
	solve := func(capacity float64, u1, u2 core.Utility) []float64 {
		p := core.NewProblem([]float64{capacity})
		p.AddFlow([]int{0}, u1)
		p.AddFlow([]int{0}, u2)
		return oracle.Solve(p, oracle.SolveOptions{}).Rates
	}
	show := func(name string, u1, u2 core.Utility) []float64 {
		x := solve(10e9, u1, u2)
		fmt.Fprintf(env, "  %-34s -> %5.2fG / %5.2fG\n", name, x[0]/1e9, x[1]/1e9)
		return x
	}
	show("alpha-fair (a=1), equal", core.NewAlphaFair(1), core.NewAlphaFair(1))
	weighted := show("weighted alpha-fair (w=1 vs w=3)", core.NewWeightedAlphaFair(1, 1), core.NewWeightedAlphaFair(1, 3))
	fctMin := show("FCT-min (10KB vs 10MB flows)", core.FCTMin(10<<10, core.FCTEpsilon), core.FCTMin(10<<20, core.FCTEpsilon))
	show("bandwidth functions (Fig. 2)", core.NewBWUtility(harness.Fig2Flow1(), 5), core.NewBWUtility(harness.Fig2Flow2(), 5))

	p := core.NewProblem([]float64{10e9, 10e9})
	g := p.AddAggregate(core.ProportionalFair())
	p.AddSubflow(g, []int{0})
	p.AddSubflow(g, []int{1})
	res := oracle.Solve(p, oracle.SolveOptions{})
	fmt.Fprintf(env, "  %-34s -> %5.2fG aggregate over two 10G paths\n",
		"resource pooling (2 subflows)", (res.Rates[0]+res.Rates[1])/1e9)
	// Flow 1 of Figure 2 at 25G, where its bandwidth function and flow
	// 2's both bind.
	bwf := solve(25e9, core.NewBWUtility(harness.Fig2Flow1(), 5), core.NewBWUtility(harness.Fig2Flow2(), 5))
	return Metrics{
		"weighted-ratio":    weighted[1] / weighted[0],
		"fctmin-small-Gbps": fctMin[0] / 1e9,
		"pooled-Gbps":       (res.Rates[0] + res.Rates[1]) / 1e9,
		"bwf-flow1-Gbps":    bwf[0] / 1e9,
	}
}

func table2(env Env, s Scale, seed uint64) Metrics {
	topo := harness.ScaledTopology()
	if s == Full {
		topo = harness.PaperTopology()
	}
	rtt := topo.BaseRTT()
	cfg := harness.DefaultConfig(harness.NUMFabric, topo)
	fmt.Fprintln(env, "Default parameters (Table 2):")
	fmt.Fprintf(env, "  NUMFabric: ewmaTime=%v dt=%v priceUpdateInterval=%v eta=%g beta=%g\n",
		cfg.NUMFabric.EWMATime, cfg.NUMFabric.DT, cfg.NUMFabric.PriceUpdateInterval,
		cfg.NUMFabric.Eta, cfg.NUMFabric.Beta)
	fmt.Fprintf(env, "  DGD:       priceUpdateInterval=%v gains a=%g b=%g (normalized)\n",
		transport.DGDUpdateInterval, transport.DGDGainA, transport.DGDGainB)
	fmt.Fprintf(env, "  RCP*:      rateUpdateInterval=%v gains a=%g b=%g\n",
		transport.RCPUpdateInterval, transport.RCPGainA, transport.RCPGainB)
	fmt.Fprintf(env, "  network:   baseRTT=%v buffer=%dB/port\n", rtt, harness.BufferBytes)
	return nil
}

func fig2(env Env, s Scale, seed uint64) Metrics {
	fmt.Fprintln(env, "BwE water-filling (Figure 2): two flows, link 10G then 25G")
	funcs := []*core.BandwidthFunction{harness.Fig2Flow1(), harness.Fig2Flow2()}
	var x []float64
	for _, c := range []float64{10e9, 25e9} {
		x = oracle.BwESingleLink(c, funcs)
		fmt.Fprintf(env, "  C=%2.0fG: flow1=%5.2fG flow2=%5.2fG\n", c/1e9, x[0]/1e9, x[1]/1e9)
	}
	return Metrics{"flow1@25G-Gbps": x[0] / 1e9, "flow2@25G-Gbps": x[1] / 1e9}
}
