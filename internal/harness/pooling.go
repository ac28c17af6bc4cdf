package harness

import (
	"sort"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

// PoolingConfig parameterizes the §6.3 resource-pooling experiment:
// permutation traffic where each source–destination pair runs k
// subflows hashed onto random spine paths, comparing proportional
// fairness at the subflow level ("no resource pooling") against
// proportional fairness over the aggregates (Table 1, row 4).
type PoolingConfig struct {
	Topo TopologyConfig
	// Subflows per source-destination pair (paper sweeps 1–8).
	Subflows int
	// Pooling selects the aggregate utility; false runs independent
	// subflow utilities.
	Pooling bool
	// Measure is how long to run before reading throughputs.
	Measure sim.Duration
	Seed    uint64
}

// PoolingTopology returns the §6.3 resource-pooling fabric: the MPTCP
// paper's layout with all-10 Gb/s links (paper: 128 servers, 8
// leaves, 16 spines; scaled default: 32 servers, 4 leaves, 8 spines —
// same 2:1 host-to-spine ratio per leaf and full bisection bandwidth).
func PoolingTopology() TopologyConfig {
	return TopologyConfig{
		Leaves:       4,
		Spines:       8,
		HostsPerLeaf: 8,
		HostLink:     10 * sim.Gbps,
		SpineLink:    10 * sim.Gbps,
	}
}

// DefaultPooling returns a scaled Figure 8 configuration.
func DefaultPooling(subflows int, pooling bool) PoolingConfig {
	return PoolingConfig{
		Topo:     PoolingTopology(),
		Subflows: subflows,
		Pooling:  pooling,
		Measure:  15 * sim.Millisecond,
		Seed:     1,
	}
}

// PoolingResult reports the Figure 8 metrics.
type PoolingResult struct {
	// FlowThroughputs holds each source-destination pair's aggregate
	// throughput in bits/second.
	FlowThroughputs []float64
	// Optimal is the per-flow optimal throughput (the host line rate:
	// permutation traffic on a full-bisection fabric can saturate
	// every host).
	Optimal float64
}

// TotalThroughputPct returns total throughput as a percentage of the
// optimal (Figure 8a's y-axis).
func (r PoolingResult) TotalThroughputPct() float64 {
	sum := 0.0
	for _, x := range r.FlowThroughputs {
		sum += x
	}
	return 100 * sum / (r.Optimal * float64(len(r.FlowThroughputs)))
}

// RankedPct returns per-flow throughputs as percentages of optimal,
// sorted descending (Figure 8b's curve).
func (r PoolingResult) RankedPct() []float64 {
	out := make([]float64, len(r.FlowThroughputs))
	for i, x := range r.FlowThroughputs {
		out[i] = 100 * x / r.Optimal
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// JainIndex returns Jain's fairness index of the flow throughputs.
func (r PoolingResult) JainIndex() float64 {
	n := float64(len(r.FlowThroughputs))
	var sum, sq float64
	for _, x := range r.FlowThroughputs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (n * sq)
}

// poolingPairs draws the §6.3 scenario: permutation source–destination
// pairs, each with cfg.Subflows subflows "hashed onto a path at
// random", as every pair's subflow paths in link-id form.
func poolingPairs(topo *Topology, cfg PoolingConfig, rng *sim.RNG) [][][]int {
	pairs := workload.Permutation(len(topo.Hosts), rng)
	paths := make([][][]int, len(pairs))
	for pi, pr := range pairs {
		for s := 0; s < cfg.Subflows; s++ {
			paths[pi] = append(paths[pi], topo.Route(pr[0], pr[1], rng.Intn(cfg.Topo.Spines)))
		}
	}
	return paths
}

// RunPoolingWith runs the resource-pooling experiment under NUMFabric
// on the chosen engine: packet subflows coupled through a
// transport.Aggregate and read through 200 µs EWMA meters, or a
// fluid.Group per pair read at the allocator's exact rates (see
// SampledEngine for what EngineLeap runs). The permutation and the
// subflow spine hashes are the same on both for a given seed.
func RunPoolingWith(eng Engine, cfg PoolingConfig) PoolingResult {
	scheme := DefaultConfig(NUMFabric, cfg.Topo)
	optimal := cfg.Topo.HostLink.Float()
	if eng, _ = SampledEngine(eng); eng == EnginePacket {
		sub := newPacketFabric(cfg.Topo, scheme)
		sub.meterTau = 200 * sim.Microsecond
		paths := poolingPairs(sub.topo, cfg, sim.NewRNG(cfg.Seed))
		return runPooling(sub, paths, cfg.Pooling, optimal, func() { sub.run(sim.Time(cfg.Measure)) })
	}
	topo := NewFluidTopology(cfg.Topo)
	feng := fluid.NewEngine(topo.network(), fluid.Config{
		Epoch:     FluidEpochFor(scheme),
		Allocator: FluidAllocatorFor(scheme),
	})
	paths := poolingPairs(topo, cfg, sim.NewRNG(cfg.Seed))
	return runPooling(&epochFabric{eng: feng}, paths, cfg.Pooling, optimal, func() { feng.Run(cfg.Measure.Seconds()) })
}

// runPooling is the Figure 8 scenario over any substrate: start every
// pair's subflows — pooled under one proportional-fair utility of the
// aggregate rate, or as independent proportional-fair flows — let the
// engine settle, and tally each pair's total throughput.
func runPooling(sub flowStarter, pathsByPair [][][]int, pooled bool, optimal float64, settle func()) PoolingResult {
	handles := make([]int, len(pathsByPair))
	for pi, paths := range pathsByPair {
		handles[pi] = sub.start(paths, core.ProportionalFair(), pooled)
	}
	settle()
	res := PoolingResult{Optimal: optimal}
	for _, h := range handles {
		res.FlowThroughputs = append(res.FlowThroughputs, sub.rate(h))
	}
	return res
}

// FatTreePoolingConfig parameterizes the fluid-only fat-tree
// resource-pooling scenario: Groups multipath aggregates on a k-ary
// fat-tree, each pooling Subflows ECMP paths between an inter-pod
// host pair under one proportional-fair utility of the aggregate
// rate. Sources cycle through the hosts and destinations sit half the
// fabric away, so every host carries Groups/hosts aggregates and the
// pooled optimum is an exactly uniform split of the host links — at
// scales (tens of thousands of subflows) two to three orders of
// magnitude beyond the packet path's reach.
type FatTreePoolingConfig struct {
	// K is the fat-tree arity (even, ≥ 4 for multipath).
	K int
	// LinkRate is every link's capacity in bits/second.
	LinkRate float64
	// Groups is the number of multipath aggregates.
	Groups int
	// Subflows is the ECMP path count pooled per group (≤ (K/2)²).
	Subflows int
	// Pooling selects one utility over each group's total rate; false
	// runs every subflow as an independent proportional-fair flow.
	Pooling bool
	// Epochs is how many allocation epochs to run.
	Epochs int
	// Seed drives the ECMP path sampling.
	Seed uint64
}

// DefaultFatTreePooling returns a ≥10k-subflow scenario: 1280 groups
// × 8 ECMP subflows on a k=8 fat-tree (128 hosts, 768 directed
// links).
func DefaultFatTreePooling(pooling bool) FatTreePoolingConfig {
	return FatTreePoolingConfig{
		K:        8,
		LinkRate: 10e9,
		Groups:   1280,
		Subflows: 8,
		Pooling:  pooling,
		Epochs:   300,
		Seed:     1,
	}
}

// RunFatTreePooling executes the fluid fat-tree resource-pooling
// scenario under xWI dynamics and reports per-group throughputs. The
// result's Optimal is the uniform pooled optimum hosts·rate/groups
// (the fabric has full bisection bandwidth, so host access links are
// the only bottleneck), making TotalThroughputPct the fraction of the
// fabric-wide bound realized.
func RunFatTreePooling(cfg FatTreePoolingConfig) PoolingResult {
	ft := fluid.NewFatTree(cfg.K, cfg.LinkRate)
	rng := sim.NewRNG(cfg.Seed)
	hosts := ft.Hosts()
	scheme := DefaultConfig(NUMFabric, ScaledTopology())
	feng := fluid.NewEngine(ft.Net, fluid.Config{
		Allocator: FluidAllocatorFor(scheme),
	})
	paths := make([][][]int, cfg.Groups)
	for gi := range paths {
		src := gi % hosts
		paths[gi] = samplePaths(ft, src, (src+hosts/2)%hosts, cfg.Subflows, rng)
	}
	optimal := cfg.LinkRate * float64(hosts) / float64(cfg.Groups)
	return runPooling(&epochFabric{eng: feng}, paths, cfg.Pooling, optimal, func() {
		for e := 0; e < cfg.Epochs; e++ {
			feng.Step()
		}
	})
}

// samplePaths draws n distinct ECMP paths between src and dst (all of
// them when n exceeds the path-set size) via a partial Fisher–Yates
// shuffle of the route choices.
func samplePaths(ft *fluid.FatTree, src, dst, n int, rng *sim.RNG) [][]int {
	count := ft.PathCount(src, dst)
	if n > count {
		n = count
	}
	choice := make([]int, count)
	for i := range choice {
		choice[i] = i
	}
	paths := make([][]int, n)
	for j := 0; j < n; j++ {
		k := j + rng.Intn(count-j)
		choice[j], choice[k] = choice[k], choice[j]
		paths[j] = ft.Route(src, dst, choice[j])
	}
	return paths
}
