package main

// The names fixed here are the vocabulary every later performance or
// simplicity issue states its claim in: six workloads, four bounded
// end-to-end metrics (fail_frac, the fifth, travels as failed/attempted
// because it is 0 on a healthy tree), and the per-layer ledger.
// BENCHMARK.json repeats them for the driver; TestSpecMatchesManifest
// keeps the two in step.

// metricSpec is one named metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

var endToEnd = []metricSpec{
	{"flows_per_s", "flows/s", higher, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"rss_mb", "MB", lower, 0.25},
}

// perLayer lists every layer metric a traced play can report. A layer
// a workload never enters reports 0 there: that is the time it spent
// in it.
var perLayer = []metricSpec{
	// Set-up layers of the in-process leap workloads.
	{Name: "fluid.topo_s", Unit: "s", Better: lower},
	{Name: "workload.gen_s", Unit: "s", Better: lower},
	{Name: "workload.arrivals", Unit: "count", Better: higher},
	{Name: "fluid.route_s", Unit: "s", Better: lower},
	{Name: "fluid.route_ns_per_flow", Unit: "ns", Better: lower},
	{Name: "leap.admit_s", Unit: "s", Better: lower},
	{Name: "leap.admit_ns_per_flow", Unit: "ns", Better: lower},
	// The event loop: run_s is Engine.Run, self_s is run_s minus the
	// allocator time the decorator saw.
	{Name: "leap.run_s", Unit: "s", Better: lower},
	{Name: "leap.self_s", Unit: "s", Better: lower},
	{Name: "leap.ns_per_event", Unit: "ns", Better: lower},
	{Name: "leap.phase.admit_s", Unit: "s", Better: lower},
	{Name: "leap.phase.flood_s", Unit: "s", Better: lower},
	{Name: "leap.phase.solve_s", Unit: "s", Better: lower},
	{Name: "leap.phase.resplice_s", Unit: "s", Better: lower},
	{Name: "leap.phase.complete_s", Unit: "s", Better: lower},
	{Name: "leap.phase.drain_s", Unit: "s", Better: lower},
	{Name: "leap.phase.loop_s", Unit: "s", Better: lower},
	{Name: "leap.phase.window_s", Unit: "s", Better: lower},
	// The allocator, seen through the timing decorator.
	{Name: "fluid.alloc_s", Unit: "s", Better: lower},
	{Name: "fluid.alloc_calls", Unit: "count", Better: lower},
	{Name: "fluid.alloc_flows", Unit: "count", Better: lower},
	{Name: "fluid.alloc_ns_per_flow", Unit: "ns", Better: lower},
	{Name: "fluid.alloc_max_flows", Unit: "count", Better: lower},
	{Name: "fluid.alloc_ns_per_flow.le2", Unit: "ns", Better: lower},
	{Name: "fluid.alloc_ns_per_flow.le8", Unit: "ns", Better: lower},
	{Name: "fluid.alloc_ns_per_flow.le64", Unit: "ns", Better: lower},
	{Name: "fluid.alloc_ns_per_flow.gt64", Unit: "ns", Better: lower},
	{Name: "leap.alloc_iters", Unit: "count", Better: lower},
	// Exact work counts from leap.Stats (or the CLI's CSV row).
	{Name: "leap.events", Unit: "count", Better: lower},
	{Name: "leap.solves", Unit: "count", Better: lower},
	{Name: "leap.solved_flows", Unit: "count", Better: lower},
	{Name: "leap.max_component", Unit: "count", Better: lower},
	{Name: "leap.alloc_work_ratio", Unit: "ratio", Better: higher},
	{Name: "stats.summarize_s", Unit: "s", Better: lower},
	{Name: "netsim.run_s", Unit: "s", Better: lower},
	{Name: "netsim.us_per_flow", Unit: "us", Better: lower},
	{Name: "harness.run_s", Unit: "s", Better: lower},
	{Name: "harness.ideal_s", Unit: "s", Better: lower},
	{Name: "harness.ideal_frac", Unit: "ratio", Better: lower},
	{Name: "cli.wall_s", Unit: "s", Better: lower},
	{Name: "cli.engine_run_s", Unit: "s", Better: lower},
	{Name: "cli.outside_run_s", Unit: "s", Better: lower},
	{Name: "cli.user_s", Unit: "s", Better: lower},
	{Name: "cli.sys_s", Unit: "s", Better: lower},
	{Name: "cli.phase.admit_s", Unit: "s", Better: lower},
	{Name: "cli.phase.flood_s", Unit: "s", Better: lower},
	{Name: "cli.phase.solve_s", Unit: "s", Better: lower},
	{Name: "cli.phase.resplice_s", Unit: "s", Better: lower},
	{Name: "cli.phase.complete_s", Unit: "s", Better: lower},
	{Name: "cli.phase.drain_s", Unit: "s", Better: lower},
	{Name: "cli.phase.loop_s", Unit: "s", Better: lower},
	{Name: "cli.phase.window_s", Unit: "s", Better: lower},
	// Go runtime, read once at the end of the traced play.
	{Name: "go.alloc_mb", Unit: "MB", Better: lower},
	{Name: "go.mallocs_per_flow", Unit: "count", Better: lower},
	{Name: "go.gc_cycles", Unit: "count", Better: lower},
	{Name: "go.gc_pause_s", Unit: "s", Better: lower},
	{Name: "go.heap_live_mb", Unit: "MB", Better: lower},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: lower},
	// Simulated statistics: a change meant only to speed the simulator
	// up must leave every one of these identical.
	{Name: "sim.fct_norm_median", Unit: "ratio", Better: lower},
	{Name: "sim.fct_norm_p99", Unit: "ratio", Better: lower},
	{Name: "sim.finished", Unit: "count", Better: higher},
	{Name: "sim.fct_fingerprint", Unit: "count", Better: higher},
	// Reference check against refsim.
	{Name: "ref.err_max", Unit: "ratio", Better: lower},
	{Name: "ref.flows", Unit: "count", Better: higher},
	{Name: "ref.run_s", Unit: "s", Better: lower},
}

// kind says how a workload's play is driven.
type kind int

const (
	kindLeap    kind = iota // the benchmark builds the schedule and a leap engine itself
	kindHarness             // one harness.RunDynamicWith call
	kindCLI                 // the built numfabric binary, watched from outside
)

// workloadSpec is one named workload: a closed batch run of Flows
// flows. Why is the one-line reason BENCHMARK.json carries.
type workloadSpec struct {
	Name  string
	Why   string
	Flows int
	Kind  kind
	// Ref marks the workloads refsim validates.
	Ref bool
	// Panel is how many distinct schedules one run plays and Rounds how
	// often it plays each at the least: the seconds a run has go to more
	// schedules where a schedule's cost moves with the seed (fig5-leap
	// ±6 %), to repeats where it does not (±4 % or less on the leap
	// workloads). fig7-packet's 3.5 s schedules move by ±12 %: it plays
	// six of them once each.
	Panel, Rounds int
}

var workloads = []workloadSpec{
	{"poisson-wf", "leap + WaterFill on 200k web-search Poisson flows; no layer dominates, so loop, heap, table and harness work all show", 200_000, kindLeap, true, 3, 3},
	{"coflows-wf", "same engine on synchronized coflow bursts: few wide same-instant batches, so flood/partition/complete dominate instead of the heap", 200_000, kindLeap, true, 3, 3},
	{"fctmin-xwi", "the paper's algorithm (xWI to fixed point, FCT-min utility) at load 0.12; allocator-bound, so event-loop and harness changes must not move it", 100_000, kindLeap, false, 1, 3},
	{"fig7-packet", "packet engine through the harness; leap does nothing here, it guards the faithful engine that regenerates the figures", 1_000, kindHarness, false, 6, 1},
	{"fig5-leap", "Figure 5 pipeline on leap with Oracle ideals on, load 0.05; harness.FluidIdealFCTs does nearly all the work, the engine almost none", 4_000, kindHarness, false, 3, 3},
	{"cli-leapfct", "numfabric -experiment leapfct -scale full with default flags: 1M flows, hooks attached, working-set scale", 1_000_000, kindCLI, false, 1, 3},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
