package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/obs"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// The fat-tree every leap workload runs on: k=8 (128 hosts), 10G links.
const (
	fatTreeK    = 8
	fatTreeRate = 10e9
	// refFlows is how many leading arrivals of a play's schedule the
	// reference check replays.
	refFlows = 20_000
)

// playResult is what one play reports. A child process fills the
// simulation side and prints it as one JSON line; the parent adds what
// only it can see (wall, rusage).
type playResult struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Attempted int    `json:"attempted"`
	Finished  int    `json:"finished"`
	// Failed counts flows that did not finish or whose FCT is NaN, ≤ 0,
	// below the line-rate transfer time, or (reference plays) off the
	// reference; workload-level checks fail every attempted flow.
	Failed int `json:"failed"`
	// Why names the first failed check, empty when none failed.
	Why string `json:"why,omitempty"`
	// SetupS is exec → the first call that advances simulated time.
	SetupS float64 `json:"setup_s"`
	// Fingerprint is FNV-64a over every finish time's bits, in arrival
	// order, as hex.
	Fingerprint string             `json:"fingerprint"`
	Layers      map[string]float64 `json:"layers"`
	Spans       []span             `json:"spans,omitempty"`

	WallS float64 `json:"wall_s"`
	UserS float64 `json:"user_s"`
	SysS  float64 `json:"sys_s"`
	RSSMB float64 `json:"rss_mb"`
}

func (r *playResult) fail(n int, why string) {
	r.Failed += n
	if r.Why == "" {
		r.Why = why
	}
}

// fingerprint accumulates FNV-64a over float bit patterns.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) add(x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	f.h.Write(b[:])
}

// store writes the hash into res: the hex string, and its top 48 bits
// as the numeric sim.fct_fingerprint (exact in a float64).
func (f fingerprint) store(res *playResult) {
	sum := f.h.Sum64()
	res.Fingerprint = fmt.Sprintf("%016x", sum)
	res.Layers["sim.fct_fingerprint"] = float64(sum >> 16)
}

// finite maps NaN and ±Inf to 0 so a result always encodes as JSON.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// checkFCT applies the per-flow correctness checks: finished, and an
// FCT no shorter than the payload's line-rate transfer time.
func checkFCT(fct float64, size int64, linkRate float64) bool {
	return fct > 0 && fct >= float64(size)*8/linkRate*(1-1e-9)
}

// storeNorm records the normalized-FCT summary.
func storeNorm(res *playResult, norm []float64) {
	res.Finished = len(norm)
	res.Layers["sim.finished"] = float64(len(norm))
	res.Layers["sim.fct_norm_median"] = finite(stats.Median(norm))
	res.Layers["sim.fct_norm_p99"] = finite(stats.Percentile(norm, 0.99))
}

// runPlay plays workload w once at the given size. rec non-nil makes
// it the traced play: spans, the allocator decorator, the phase
// profiler and the Go runtime counters are recorded. ref replaces the
// play by the reference check on the schedule's first refFlows flows.
func runPlay(w *workloadSpec, seed uint64, flows int, rec *spanRecorder, ref bool, t0 time.Time) playResult {
	res := playResult{Workload: w.Name, Seed: seed, Attempted: flows, Layers: map[string]float64{}}
	var keep any
	switch {
	case ref:
		playRef(w, seed, flows, &res)
	case w.Kind == kindHarness:
		keep = playHarness(w, seed, flows, rec, t0, &res)
	default:
		keep = playLeap(w, seed, flows, rec, t0, &res)
	}
	if rec != nil {
		// Live heap is read after a forced collection with the play's
		// results still reachable.
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		runtime.KeepAlive(keep)
		res.Layers["go.alloc_mb"] = float64(m.TotalAlloc) / (1 << 20)
		res.Layers["go.mallocs_per_flow"] = float64(m.Mallocs) / float64(max(flows, 1))
		res.Layers["go.gc_cycles"] = float64(m.NumGC) - 1
		res.Layers["go.gc_pause_s"] = float64(m.PauseTotalNs) / 1e9
		res.Layers["go.heap_live_mb"] = float64(m.HeapAlloc) / (1 << 20)
		res.Spans = rec.spans
	}
	res.RSSMB = peakRSSMB()
	return res
}

// peakRSSMB is this process's peak resident set so far (VmHWM), or 0
// where /proc does not say. An in-process play reads it itself because
// rusage cannot: ru_maxrss survives exec, so a child smaller than the
// benchmark's own parent process (fig5-leap: 14 MB) would report the
// parent's size at the moment of the fork.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(status), "VmHWM:")
	if !ok {
		return 0
	}
	kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// leapSchedule generates a leap workload's arrivals and one ECMP path
// pick per arrival from one seeded stream — the same draws, in the
// same order, as harness.FatTreeWebSearch / harness.FatTreeCoflows
// (TestScheduleIdentity pins it) — but as two separately timed steps.
func leapSchedule(name string, ft *fluid.FatTree, flows int, seed uint64, rec *spanRecorder, layers map[string]float64) ([]workload.Arrival, [][]int) {
	rng := sim.NewRNG(seed)
	var arrivals []workload.Arrival
	genS := rec.time("workload.gen", func() {
		switch name {
		case "coflows-wf":
			arrivals = workload.Coflows(workload.CoflowConfig{
				Hosts: ft.Hosts(), HostLink: sim.BitRate(ft.Rate), Load: 0.1,
				CDF: workload.WebSearch(), Senders: 15, Bursts: 24,
				Groups: ft.K, MaxFlows: flows,
			}, rng)
		default:
			load := 0.1
			if name == "fctmin-xwi" {
				load = 0.12
			}
			arrivals = workload.Poisson(workload.PoissonConfig{
				Hosts: ft.Hosts(), HostLink: sim.BitRate(ft.Rate), Load: load,
				CDF: workload.WebSearch(), Duration: sim.Duration(sim.Forever / 2),
				MaxFlows: flows,
			}, rng)
		}
	})
	paths := make([][]int, len(arrivals))
	routeS := rec.time("fluid.route", func() {
		for i, a := range arrivals {
			paths[i] = ft.Route(a.Src, a.Dst, rng.Intn(ft.K*ft.K/4))
		}
	})
	if rec != nil {
		n := float64(max(len(arrivals), 1))
		layers["workload.gen_s"] = genS
		layers["workload.arrivals"] = float64(len(arrivals))
		layers["fluid.route_s"] = routeS
		layers["fluid.route_ns_per_flow"] = routeS * 1e9 / n
	}
	return arrivals, paths
}

// leapAllocator returns the workload's allocator and per-flow utility:
// water-filling under proportional fairness, or the paper's xWI run to
// its fixed point under the §6.3 FCT-minimizing utility.
func leapAllocator(name string) (fluid.ParallelSubsetAllocator, func(size int64) core.Utility) {
	if name == "fctmin-xwi" {
		scheme := harness.DefaultConfig(harness.NUMFabric, harness.ScaledTopology())
		alloc := harness.LeapAllocatorFor(scheme).(fluid.ParallelSubsetAllocator)
		return alloc, func(size int64) core.Utility { return core.FCTMin(size, 0.125) }
	}
	return fluid.NewWaterFill(), func(int64) core.Utility { return core.ProportionalFair() }
}

// runLeap admits a schedule into a fresh leap engine and runs it to
// completion. onReady fires between admission and Run.
func runLeap(ft *fluid.FatTree, cfg leap.Config, arrivals []workload.Arrival, paths [][]int,
	utility func(int64) core.Utility, rec *spanRecorder, onReady func()) (*leap.Engine, []*fluid.Flow, float64, float64) {
	eng := leap.NewEngine(ft.Net, cfg)
	flows := make([]*fluid.Flow, len(arrivals))
	admitS := rec.time("leap.admit", func() {
		for i, a := range arrivals {
			flows[i] = eng.AddFlow(paths[i], utility(a.Size), a.Size, a.At.Seconds())
		}
	})
	onReady()
	runS := rec.time("leap.run", func() { eng.Run(math.Inf(1)) })
	return eng, flows, admitS, runS
}

// playLeap is one play of poisson-wf, coflows-wf or fctmin-xwi:
// topology, generation, routing, admission, Engine.Run, FCT summary.
func playLeap(w *workloadSpec, seed uint64, nflows int, rec *spanRecorder, t0 time.Time, res *playResult) any {
	var ft *fluid.FatTree
	topoS := rec.time("fluid.topo", func() { ft = fluid.NewFatTree(fatTreeK, fatTreeRate) })
	arrivals, paths := leapSchedule(w.Name, ft, nflows, seed, rec, res.Layers)

	alloc, utility := leapAllocator(w.Name)
	cfg := leap.Config{Allocator: alloc}
	var timed *timedAlloc
	if rec != nil {
		timed = newTimedAlloc(alloc)
		cfg.Allocator = timed
		cfg.Obs = obs.Hooks{Profiler: obs.NewPhaseProfiler()}
	}
	eng, flows, admitS, runS := runLeap(ft, cfg, arrivals, paths, utility, rec,
		func() { res.SetupS = time.Since(t0).Seconds() })

	sumS := rec.time("stats.summarize", func() {
		norm := make([]float64, 0, len(flows))
		fp := newFingerprint()
		for _, f := range flows {
			fp.add(f.Finish)
			if !f.Done() || !checkFCT(f.FCT(), f.SizeBytes, fatTreeRate) {
				res.fail(1, "flow unfinished or faster than line rate")
			}
			if f.Done() {
				norm = append(norm, f.FCT()/(float64(f.SizeBytes)*8/fatTreeRate))
			}
		}
		fp.store(res)
		storeNorm(res, norm)
		if med := res.Layers["sim.fct_norm_median"]; w.Name == "fctmin-xwi" && nflows == w.Flows && med > 1.05 {
			// §6.3: the FCT-min utility is SJF-like, so the median flow
			// finishes at close to line rate. The bound belongs to the
			// workload at its stated size: a smoke-sized play never
			// leaves xWI's cold-start transient.
			res.fail(nflows, fmt.Sprintf("median normalized FCT %.4f > 1.05", med))
		}
	})
	if rec != nil {
		n := float64(max(len(arrivals), 1))
		res.Layers["fluid.topo_s"] = topoS
		res.Layers["leap.admit_s"] = admitS
		res.Layers["leap.admit_ns_per_flow"] = admitS * 1e9 / n
		res.Layers["stats.summarize_s"] = sumS
		storeLeapStats(res.Layers, eng.Stats(), runS)
		storeAllocTotals(res.Layers, timed.totals, runS)
	}
	return flows
}

// storeLeapStats records the leap.Stats fields the benchmark reads —
// Events, Allocs, SolvedFlows, FullSolveFlows, MaxComponent,
// AllocIters, PhaseNanos — and nothing else of the struct.
func storeLeapStats(layers map[string]float64, s leap.Stats, runS float64) {
	layers["leap.run_s"] = runS
	layers["leap.ns_per_event"] = runS * 1e9 / float64(max(s.Events, 1))
	layers["leap.events"] = float64(s.Events)
	layers["leap.solves"] = float64(s.Allocs)
	layers["leap.solved_flows"] = float64(s.SolvedFlows)
	layers["leap.max_component"] = float64(s.MaxComponent)
	layers["leap.alloc_work_ratio"] = float64(s.FullSolveFlows) / float64(max(s.SolvedFlows, 1))
	layers["leap.alloc_iters"] = float64(s.AllocIters)
	for ph, ns := range s.PhaseNanos {
		layers["leap.phase."+obs.PhaseName(obs.Phase(ph))+"_s"] = float64(ns) / 1e9
	}
}

func storeAllocTotals(layers map[string]float64, t *allocTotals, runS float64) {
	calls, flows, nanos := t.sum()
	layers["fluid.alloc_s"] = float64(nanos) / 1e9
	layers["fluid.alloc_calls"] = float64(calls)
	layers["fluid.alloc_flows"] = float64(flows)
	layers["fluid.alloc_ns_per_flow"] = float64(nanos) / float64(max(flows, 1))
	layers["fluid.alloc_max_flows"] = float64(t.maxFlows)
	for b, name := range allocBucketNames {
		layers["fluid.alloc_ns_per_flow."+name] = float64(t.nanos[b]) / float64(max(t.flows[b], 1))
	}
	layers["leap.self_s"] = runS - float64(nanos)/1e9
}

// playRef is the reference check: the fast engine and refsim both play
// the first refFlows arrivals of the play's schedule, and every flow
// whose FCTs disagree beyond refTolerance counts as failed.
func playRef(w *workloadSpec, seed uint64, nflows int, res *playResult) {
	ft := fluid.NewFatTree(fatTreeK, fatTreeRate)
	arrivals, paths := leapSchedule(w.Name, ft, nflows, seed, nil, nil)
	if len(arrivals) > refFlows {
		arrivals, paths = arrivals[:refFlows], paths[:refFlows]
	}
	alloc, utility := leapAllocator(w.Name)
	_, flows, _, _ := runLeap(ft, leap.Config{Allocator: alloc}, arrivals, paths, utility, nil, func() {})

	at := make([]float64, len(arrivals))
	size := make([]float64, len(arrivals))
	engine := make([]float64, len(arrivals))
	for i, a := range arrivals {
		at[i], size[i], engine[i] = a.At.Seconds(), float64(a.Size), flows[i].FCT()
	}
	start := time.Now()
	ref := refFCTs(ft.Net.Capacity, at, size, paths)
	res.Layers["ref.run_s"] = time.Since(start).Seconds()
	failed, errMax := refCompare(engine, ref)
	res.Attempted = len(arrivals)
	res.Finished = len(arrivals) - failed
	if failed > 0 {
		res.fail(failed, fmt.Sprintf("%d flows off the reference, max relative error %.3g", failed, errMax))
	}
	res.Layers["ref.err_max"] = errMax
	res.Layers["ref.flows"] = float64(len(arrivals))
}

// playHarness is one play of fig7-packet or fig5-leap: the harness's
// dynamic-workload driver at scaled-topology defaults, web-search
// sizes. fig7 runs the packet engine at load 0.4 without ideals; fig5
// runs the leap engine with the Oracle ideals the figure needs, at load
// 0.05: the ideals' cost grows faster than the number of flows in
// flight, so at load 0.4 the rare crowded moments of a schedule decide
// it and 1,000-flow schedules cost 1.8–3.8 s depending on the seed; at
// 0.05 a 4,000-flow schedule costs 1.06 s ± 6 %.
func playHarness(w *workloadSpec, seed uint64, nflows int, rec *spanRecorder, t0 time.Time, res *playResult) any {
	packet := w.Name == "fig7-packet"
	load := 0.05
	if packet {
		load = 0.4
	}
	cfg := harness.DefaultDynamic(harness.NUMFabric, workload.WebSearch(), load)
	cfg.Flows = nflows
	cfg.Seed = seed
	engine := harness.EngineLeap
	if packet {
		engine = harness.EnginePacket
		cfg.SkipFluidIdeal = true
	} else if rec != nil {
		cfg.Obs = obs.Hooks{Profiler: obs.NewPhaseProfiler()}
	}
	res.SetupS = time.Since(t0).Seconds()
	var out harness.DynamicResult
	runS := rec.time("harness.run", func() { out = harness.RunDynamicWith(engine, cfg) })

	hostRate := cfg.Topo.HostLink.Float()
	fp := newFingerprint()
	if out.Unfinished > 0 {
		res.fail(out.Unfinished, "flows unfinished at the drain deadline")
	}
	for _, r := range out.Records {
		fp.add(r.FCT)
		bad := !checkFCT(r.FCT, r.Size, hostRate)
		if !packet {
			fp.add(r.IdealFCT)
			bad = bad || math.IsNaN(r.IdealFCT)
		}
		if bad {
			res.fail(1, "FCT faster than line rate, or NaN ideal")
		}
	}
	fp.store(res)
	storeNorm(res, out.NormalizedFCTs(cfg.Topo))

	if rec == nil {
		return out
	}
	n := float64(max(nflows, 1))
	if packet {
		res.Layers["netsim.run_s"] = runS
		res.Layers["netsim.us_per_flow"] = runS * 1e6 / n
		return out
	}
	// The cost of the ideals is the difference to the same run without
	// them; the profiler (its totals are time inside Engine.Run) says
	// how little of the rest is the engine.
	storeLeapStats(res.Layers, *out.LeapStats, float64(cfg.Obs.Profiler.TotalNanos())/1e9)
	cfg.SkipFluidIdeal = true
	cfg.Obs = obs.Hooks{}
	noIdealS := rec.time("harness.run.noideal", func() { harness.RunDynamicWith(engine, cfg) })
	res.Layers["harness.run_s"] = runS
	res.Layers["harness.ideal_s"] = runS - noIdealS
	res.Layers["harness.ideal_frac"] = (runS - noIdealS) / runS
	return out
}
