// Command numfabric runs the paper's experiments from the command
// line and prints the tables/series each figure plots.
//
// Usage:
//
//	numfabric -experiment fig4a [-scale full] [-seed 1] [-engine fluid]
//
// Experiments (paper.Experiments is the one list; "all" runs them in
// order): table1, table2, fig2, fig4a, fig4bc, fig5a, fig5b, fig6a,
// fig6b, fig6c, fig7, fig8, fig9, fig10, ablations, fattree,
// fluidsweep, fluidpooling, leapfct, leapfail. ablations runs
// NUMFabric's design-choice ablations (packet-pair probing, STFQ vs
// multi-queue, price averaging, η) on the semi-dynamic scenario.
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
// its allocators on the epoch engine and their header says so. A
// fluid or leap -engine on any other experiment but all is an error, not
// a silent packet run. An unknown -engine or -experiment value is an
// error that lists the valid ones, and so is a -scale other than
// "scaled" or "full", and so is an -out, -trace-out, -flowtrace-out,
// -cpuprofile or -memprofile path that cannot be created, and so is a
// flag the run would ignore (-flowtrace-sample or -flowtrace-slowest
// without -flowtrace-out or -debug-addr, -debug-hold without
// -debug-addr): each exits 2 before any experiment starts.
// Four experiments are fluid/leap-only — they run regimes the
// packet engine cannot reach: fattree (a k=8 fat-tree serving ≥50k
// flows), fluidsweep (a multi-seed convergence sweep fanned across
// goroutines), fluidpooling (multipath aggregate groups pooling ≥10k
// ECMP subflows on a fat-tree), and leapfct (the event-driven FCT
// sweep; -scale full runs a million-flow workload).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"numfabric/internal/harness"
	"numfabric/internal/obs"
	"numfabric/internal/obs/obshttp"
	"numfabric/internal/paper"
	"numfabric/internal/workload"
)

// experimentIDs lists every valid -experiment value.
func experimentIDs() string {
	var b strings.Builder
	for _, e := range paper.Experiments {
		b.WriteString(e.ID + ", ")
	}
	return b.String() + "all"
}

// engineIDs lists the experiments that read -engine.
func engineIDs() string {
	var ids []string
	for _, e := range paper.Experiments {
		if e.TakesEngine {
			ids = append(ids, e.ID)
		}
	}
	return strings.Join(ids, ", ")
}

// checkFlags rejects an -experiment outside the table, an -engine other
// than packet or a -faults list on an experiment that would ignore it,
// and a list that does not parse or names something leapfail's
// fat-tree does not have; it returns the list expanded to link faults
// (nil without -faults).
func checkFlags(exp string, engine harness.Engine, faults string) ([]workload.Fault, error) {
	known, takesEngine := exp == "all", exp == "all"
	for _, e := range paper.Experiments {
		known = known || e.ID == exp
		takesEngine = takesEngine || e.ID == exp && e.TakesEngine
	}
	if !known {
		return nil, fmt.Errorf("unknown experiment %q (valid experiments: %s)", exp, experimentIDs())
	}
	if engine != harness.EnginePacket && !takesEngine {
		return nil, fmt.Errorf("-engine applies to %s only; %s would ignore -engine %s", engineIDs(), exp, engine)
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
	return harness.ExpandFaults(paper.LeapFailTree(), scripted)
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

// ignoredFlag reports a flag set on the command line that the run would
// ignore: -flowtrace-sample or -flowtrace-slowest with no tracer of the
// CLI's to configure (no -flowtrace-out or -debug-addr; leapfct then
// keeps a private 1 % trace), or -debug-hold with no server to hold.
func ignoredFlag(set map[string]bool, ftOut, debugAddr string) error {
	for _, name := range []string{"flowtrace-sample", "flowtrace-slowest"} {
		if set[name] && ftOut == "" && debugAddr == "" {
			return fmt.Errorf("-%s applies with -flowtrace-out or -debug-addr only; this run keeps no trace it configures", name)
		}
	}
	if set["debug-hold"] && debugAddr == "" {
		return errors.New("-debug-hold applies with -debug-addr only; this run serves nothing to hold")
	}
	return nil
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
	eng := flag.String("engine", "packet", "\"packet\" (discrete-event simulator), \"fluid\" (flow-level fast path), or \"leap\" (event-driven fast path) for "+engineIDs())
	faults := flag.String("faults", "", "scripted faults for the leapfail experiment: comma-separated target@time[+downtime] entries, e.g. \"link12@10ms+5ms,agg0.1@20ms\" (targets linkN, hostN, edgeP.E, aggP.A, coreC; no downtime = permanent)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /progress, /debug/pprof and /debug/vars on this address while experiments run (e.g. localhost:6060)")
	debugHold := flag.Duration("debug-hold", 0, "keep the -debug-addr server alive this long after the experiments finish")
	traceOut := flag.String("trace-out", "", "write a Chrome-trace (chrome://tracing / Perfetto) timeline of engine batches and component solves to this file")
	ftOut := flag.String("flowtrace-out", "", "write a JSONL flow-lifecycle trace — sampled flow records with per-segment bottleneck links, per-link utilization, slowdown attribution; analyze with cmd/flowreport (the trace is the run's last leap play)")
	ftSample := flag.Float64("flowtrace-sample", 0.01, "deterministic per-flow-id fraction of completions kept in the flow trace (1 = every flow; the slowest flows are kept regardless)")
	ftSlowest := flag.Int("flowtrace-slowest", 64, "slowest-flow reservoir size for the flow trace: this many worst slowdowns are always kept, independent of sampling (0: none)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q: experiments are chosen with -experiment\n", flag.Arg(0))
		os.Exit(2)
	}
	engine, err := harness.ParseEngine(*eng)
	if err != nil {
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
	scriptedFaults, err := checkFlags(*exp, engine, *faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ftCfg, err := flowTraceConfig(*ftSample, *ftSlowest)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := ignoredFlag(set, *ftOut, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The debug server's address is bound now, so one that cannot be
	// listened on stops the run before any output file is created.
	var debugLn net.Listener
	if *debugAddr != "" {
		if debugLn, err = net.Listen("tcp", *debugAddr); err != nil {
			fmt.Fprintf(os.Stderr, "-debug-addr: %v\n", err)
			os.Exit(2)
		}
	}
	// The files the run writes at its end are created now, so a path that
	// cannot be written stops it before the first experiment.
	traceFile := createOutput("-trace-out", *traceOut)
	ftFile := createOutput("-flowtrace-out", *ftOut)
	memFile := createOutput("-memprofile", *memprofile)
	cpuFile := createOutput("-cpuprofile", *cpuprofile)
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "-out: %v\n", err)
			os.Exit(2)
		}
	}

	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Printf("wrote %s\n", cpuFile.Name())
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
	var cliObs obs.Hooks
	if *debugAddr != "" || *traceOut != "" || *ftOut != "" {
		cliObs.Live = obs.NewLive()
		if *traceOut != "" {
			cliObs.Tracer = obs.NewTracer()
		}
		if *ftOut != "" || *debugAddr != "" {
			cliObs.FlowTrace = obs.NewFlowTracer(ftCfg)
		}
		if debugLn != nil {
			obshttp.Serve(debugLn, cliObs.Live, cliObs.FlowTrace)
			defer debugLn.Close()
			fmt.Printf("debug server on http://%s (/metrics, /progress, /flows, /links, /debug/pprof)\n", debugLn.Addr())
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

	env := paper.Env{Writer: os.Stdout, OutDir: *out, Engine: engine, Obs: cliObs, Faults: scriptedFaults}
	s := paper.Scaled
	if *scale == "full" {
		s = paper.Full
	}
	for _, e := range paper.Experiments {
		if *exp == e.ID || *exp == "all" {
			fmt.Printf("\n=== %s ===\n", e.ID)
			e.Run(env, s, *seed)
		}
	}
}
