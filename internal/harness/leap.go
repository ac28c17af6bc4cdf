package harness

import (
	"fmt"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

// LeapAllocatorFor maps a scheme onto the allocator the event-driven
// leap engine runs once per active-set change. Leap has no intra-event
// epochs, so the dynamic allocators get enough internal iterations per
// event to reach their fixed point (warm-started prices keep the
// realized effort far lower after the first event): NUMFabric's xWI
// converges in a few tens of iterations (the paper's headline), DGD
// needs an order of magnitude more (the paper's baseline complaint),
// and the stationary allocators — water-filling for the queue-level
// schemes, the exact Oracle for RCP* — are already pure functions of
// the active set.
func LeapAllocatorFor(c SchemeConfig) fluid.SubsetAllocator {
	switch c.Scheme {
	case NUMFabric:
		// Up to 48 iterations per event, with the tolerance early-exit
		// (0.1% of the largest link capacity) cutting warm-started
		// events to a handful.
		return &fluid.XWI{Eta: c.NUMFabric.Eta, Beta: c.NUMFabric.Beta, IterPerEpoch: 48, Tol: 1e-3}
	case DGD:
		return &fluid.DGD{IterPerEpoch: 600, Tol: 1e-3}
	case RCP:
		return fluid.NewOracle()
	default:
		return fluid.NewWaterFill()
	}
}

// FatTreeWebSearch is the dynamic family's draw on ft (a web-search
// Poisson schedule over its hosts, then one ECMP pick per arrival, all
// from one seeded stream) with every pick expanded to its path — so a
// benchmark that admits flows by hand plays the schedule
// RunDynamicWith plays on DynamicConfig.FatTree.
func FatTreeWebSearch(ft *fluid.FatTree, load float64, nflows int, rng *sim.RNG) ([]workload.Arrival, [][]int) {
	arrivals, picks := poissonSchedule(fatTree{ft}, workload.WebSearch(), load, nflows, rng)
	return arrivals, fatTreePaths(ft, arrivals, picks)
}

// FatTreeCoflows draws the synchronized coflow workload on ft's hosts
// (workload.Coflows: grid instants of several equal-size fan-in
// bursts, web-search burst sizes rounded to power-of-two classes) plus
// one random ECMP path pick per flow, all from one seeded stream. This
// is the batched counterpart of FatTreeWebSearch: every grid instant
// floods into many link-disjoint components solved in one batch, and
// bursts sharing a size class complete in shared instants, so the
// completion side batches too.
func FatTreeCoflows(ft *fluid.FatTree, load float64, nflows, senders, bursts int, rng *sim.RNG) ([]workload.Arrival, [][]int) {
	arrivals := workload.Coflows(workload.CoflowConfig{
		Hosts:    ft.Hosts(),
		HostLink: sim.BitRate(ft.Rate),
		Load:     load,
		CDF:      workload.WebSearch(),
		Senders:  senders,
		Bursts:   bursts,
		Groups:   ft.K, // one locality block per pod
		MaxFlows: nflows,
	}, rng)
	return arrivals, fatTreePaths(ft, arrivals, ecmpPicks(fatTree{ft}, len(arrivals), rng))
}

// fatTreePaths expands one ECMP pick per arrival to its path.
func fatTreePaths(ft *fluid.FatTree, arrivals []workload.Arrival, picks []int) [][]int {
	paths := make([][]int, len(arrivals))
	for i, a := range arrivals {
		paths[i] = ft.Route(a.Src, a.Dst, picks[i])
	}
	return paths
}

// scheduleFaults feeds a fault schedule into a leap engine's event
// heap; the engine retires each fault at its instant (failures zero
// the link's capacity and strand the flows crossing it, recoveries
// restore it and resume them).
func scheduleFaults(e *leap.Engine, faults []workload.Fault) {
	for _, f := range faults {
		if f.Fail {
			e.FailLink(f.Link, f.At.Seconds())
		} else {
			e.RecoverLink(f.Link, f.At.Seconds())
		}
	}
}

// ExpandFaults resolves a scripted fault list against a fat-tree: each
// target becomes the concrete fault events for every incident link
// (Down > 0 adds the matching recoveries), sorted in retirement order;
// an empty list expands to none. A target the fat-tree lacks, a
// negative time or downtime (a recovery before its failure), or a time
// the clock cannot hold — a NaN or infinite sim.Seconds saturates there
// — is an error, as in workload.ParseFaults.
func ExpandFaults(ft *fluid.FatTree, scripted []workload.ScriptedFault) ([]workload.Fault, error) {
	var out []workload.Fault
	for _, sf := range scripted {
		kind, i, j, err := workload.ParseFaultTarget(sf.Target)
		switch {
		case err != nil:
		case sf.At < 0:
			err = fmt.Errorf("harness: fault target %q: negative time", sf.Target)
		case sf.Down < 0:
			err = fmt.Errorf("harness: fault target %q: negative downtime (recovery before failure)", sf.Target)
		case sim.Time(0).Add(sf.At).Add(sf.Down) == sim.Forever:
			err = fmt.Errorf("harness: fault target %q: time overflows the simulated clock", sf.Target)
		}
		if err != nil {
			return nil, err
		}
		var links []int
		switch kind {
		case "link":
			if i >= ft.Net.Links() {
				return nil, fmt.Errorf("harness: fault target %q: link out of range [0,%d)", sf.Target, ft.Net.Links())
			}
			links = []int{i}
		case "host":
			if i >= ft.Hosts() {
				return nil, fmt.Errorf("harness: fault target %q: host out of range [0,%d)", sf.Target, ft.Hosts())
			}
			links = ft.HostLinks(i)
		case "edge", "agg":
			if i >= ft.K || j >= ft.K/2 {
				return nil, fmt.Errorf("harness: fault target %q: want pod < %d, switch < %d", sf.Target, ft.K, ft.K/2)
			}
			if kind == "edge" {
				links = ft.EdgeSwitchLinks(i, j)
			} else {
				links = ft.AggSwitchLinks(i, j)
			}
		case "core":
			if n := ft.K * ft.K / 4; i >= n {
				return nil, fmt.Errorf("harness: fault target %q: core out of range [0,%d)", sf.Target, n)
			}
			links = ft.CoreSwitchLinks(i)
		}
		at := sim.Time(0).Add(sf.At)
		for _, l := range links {
			out = append(out, workload.Fault{At: at, Link: l, Fail: true})
			if sf.Down > 0 {
				out = append(out, workload.Fault{At: at.Add(sf.Down), Link: l, Fail: false})
			}
		}
	}
	workload.SortFaults(out)
	return out, nil
}

// IncastConfig parameterizes the §6.1-style incast scenario: bursts of
// Senders synchronized flows converging on one receiver host, the
// worst-case arrival pattern for a transport's convergence (every
// burst reshuffles every rate at one instant).
type IncastConfig struct {
	Topo TopologyConfig
	// Senders per burst (capped at hosts−1).
	Senders int
	// SizeBytes is each sender's payload.
	SizeBytes int64
	// Bursts is how many bursts arrive, Interval apart.
	Bursts   int
	Interval sim.Duration
	Seed     uint64
}

// DefaultIncast returns a scaled incast scenario: 16 senders × 64 KB
// per burst into host 0, bursts every 2 ms (comfortably longer than a
// burst's ~840 µs line-rate drain, so bursts do not overlap).
func DefaultIncast() IncastConfig {
	return IncastConfig{
		Topo:      ScaledTopology(),
		Senders:   16,
		SizeBytes: 64 << 10,
		Bursts:    5,
		Interval:  2 * sim.Millisecond,
		Seed:      1,
	}
}

// IncastResult aggregates an incast run.
type IncastResult struct {
	Records []FlowRecord
	// BurstFCTs[k] is burst k's completion time: the FCT of its
	// slowest flow (all Senders flows share the receiver's host link,
	// so the ideal is Senders × SizeBytes × 8 / hostLink + RTT —
	// each Record's IdealFCT).
	BurstFCTs  []float64
	Unfinished int
	// Stats is the leap engine's work telemetry for the run.
	Stats leap.Stats
}

// RunIncastLeap plays the incast workload through the leap engine under
// NUMFabric's xWI allocator (LeapAllocatorFor): each burst is exactly
// one allocation followed by (typically) one batch of simultaneous
// completions, the event-driven engine's best case. FCTs include the
// topology's base RTT, as in RunDynamicWith. SizeBytes ≤ 0 (0 is an
// unbounded leap flow) panics naming the field.
func RunIncastLeap(cfg IncastConfig) IncastResult {
	if cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("harness: RunIncastLeap: SizeBytes = %d, want > 0", cfg.SizeBytes))
	}
	topo := NewFluidTopology(cfg.Topo)
	rng := sim.NewRNG(cfg.Seed)
	arrivals := workload.Incast(workload.IncastConfig{
		Hosts:     len(topo.Hosts),
		Receiver:  0,
		Senders:   cfg.Senders,
		SizeBytes: cfg.SizeBytes,
		Bursts:    cfg.Bursts,
		Interval:  cfg.Interval,
	}, rng)
	spines := ecmpPicks(topo, len(arrivals), rng)

	d0 := cfg.Topo.BaseRTT().Seconds()
	leng := leap.NewEngine(topo.network(), leap.Config{
		Allocator: LeapAllocatorFor(DefaultConfig(NUMFabric, cfg.Topo)),
	})
	sub := &flowLevel{eng: leng, leap: leng, baseRTT: d0}

	// Every record's ideal is the fan-in bound BurstFCTs states: even a
	// perfect transport shares the receiver's host link among the burst.
	senders := min(cfg.Senders, len(topo.Hosts)-1)
	idealFCT := float64(senders)*float64(cfg.SizeBytes)*8/cfg.Topo.HostLink.Float() + d0
	records, _ := playArrivals(sub, topo, sliceSchedule(arrivals, spines),
		func(int64) core.Utility { return core.ProportionalFair() },
		func(int64) float64 { return idealFCT }, sim.Forever)
	res := IncastResult{BurstFCTs: make([]float64, cfg.Bursts), Stats: leng.Stats()}
	res.Records, res.Unfinished = finishedRecords(records)
	for _, rec := range res.Records {
		// Interval 0 (sensible for a single burst) puts every flow in burst 0.
		b := 0
		if cfg.Interval > 0 {
			b = int(rec.Start / sim.Time(cfg.Interval))
		}
		res.BurstFCTs[b] = max(res.BurstFCTs[b], rec.FCT)
	}
	return res
}
