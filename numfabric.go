// Package numfabric is a Go implementation of NUMFabric (Nagaraj et
// al., SIGCOMM 2016): a datacenter transport that solves Network
// Utility Maximization (NUM) problems distributedly, by combining a
// weighted max-min transport (Swift: WFQ switches + packet-pair window
// control) with an explicit weight-inference algorithm (xWI) that
// drives the weighted max-min allocation to the NUM optimum.
//
// The package is a façade over the implementation packages:
//
//   - a deterministic discrete-event packet simulator (hosts,
//     output-queued switches, links, source routing);
//   - a flow-granularity fluid simulation engine (internal/fluid)
//     that advances the network in epochs under pluggable rate
//     allocators — water-filling, xWI dynamics, DGD dynamics — and
//     simulates the same scenarios two to three orders of magnitude
//     faster than the packet path, reaching k-ary fat-trees and
//     ≥50k-flow workloads, with multipath aggregate flow groups
//     (fluid.Group) for resource pooling at ≥10k-subflow scale
//     (EngineFluid, or cmd/numfabric's -engine fluid flag);
//   - an event-driven flow-level engine (internal/leap) that jumps
//     time straight to the next arrival or completion, recomputing
//     rates only when the active set changes — exact completion
//     times, no epoch quantization, and another order of magnitude
//     on sparse dynamic workloads, reaching million-flow FCT
//     experiments (EngineLeap, or cmd/numfabric's -engine leap flag);
//   - the utility-function families of the paper's Table 1
//     (α-fairness, FCT minimization, resource pooling, BwE bandwidth
//     functions);
//   - the NUMFabric transport plus the DGD, RCP*, DCTCP and pFabric
//     baselines it is evaluated against;
//   - exact and fluid reference solvers (the paper's "Oracle");
//   - the workloads and experiment harnesses that regenerate every
//     table and figure of the paper's evaluation (§6). Each scenario
//     is one script played on whichever engine is asked for:
//     RunDynamicWith, RunSemiDynamicWith and RunPoolingWith take the
//     EngineType (the rate-sampling two run leap's allocators on the
//     epoch engine — leap has no transient to sample). A parallel sweep runner (fluid.Sweep)
//     fans independent seeds/configs across goroutines with
//     deterministic per-shard RNG.
//
// # Quick start
//
//	fab := numfabric.NewFabric(numfabric.ScaledFabric(), numfabric.SchemeNUMFabric)
//	a := fab.StartFlow(0, 9, 0, numfabric.ProportionalFair())  // unbounded flow
//	b := fab.StartFlow(1, 9, 0, numfabric.ProportionalFair())
//	fab.Run(5 * time.Millisecond)
//	fmt.Println(a.Rate(), b.Rate()) // ≈ 5 Gb/s each
//
// See examples/ for complete programs and cmd/numfabric for the
// experiment CLI.
package numfabric

import (
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/netsim"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/transport"
	"numfabric/internal/workload"
)

// Scheme identifies a transport under evaluation.
type Scheme = harness.Scheme

// The available transports.
const (
	SchemeNUMFabric = harness.NUMFabric
	SchemeDGD       = harness.DGD
	SchemeRCP       = harness.RCP
	SchemeDCTCP     = harness.DCTCP
	SchemePFabric   = harness.PFabric
)

// Utility is a NUM utility function U(x) of a flow's rate in
// bits/second (Table 1).
type Utility = core.Utility

// ProportionalFair returns the α=1 utility U(x) = log x.
func ProportionalFair() Utility { return core.ProportionalFair() }

// AlphaFair returns the α-fair utility family (α=0 throughput-
// maximizing, α→∞ max-min).
func AlphaFair(alpha float64) Utility { return core.NewAlphaFair(alpha) }

// WeightedAlphaFair returns α-fairness with a relative priority
// weight.
func WeightedAlphaFair(alpha, weight float64) Utility {
	return core.NewWeightedAlphaFair(alpha, weight)
}

// FCTMin returns the utility that approximates Shortest-Flow-First
// scheduling for a flow of the given size (§2, §6.3).
func FCTMin(sizeBytes int64) Utility { return core.FCTMin(sizeBytes, core.FCTEpsilon) }

// BandwidthFunction is a BwE-style piecewise-linear bandwidth
// function B(fair share) (§2).
type BandwidthFunction = core.BandwidthFunction

// BWPoint is a bandwidth-function vertex.
type BWPoint = core.BWPoint

// NewBandwidthFunction builds a bandwidth function from vertices.
func NewBandwidthFunction(pts []BWPoint) (*BandwidthFunction, error) {
	return core.NewBandwidthFunction(pts)
}

// BandwidthFunctionUtility encodes a bandwidth function as a NUM
// utility (Table 1, last row); alpha ≈ 5 approximates the BwE
// water-filling allocation well.
func BandwidthFunctionUtility(b *BandwidthFunction, alpha float64) Utility {
	return core.NewBWUtility(b, alpha)
}

// FabricConfig sizes a leaf-spine fabric.
type FabricConfig = harness.TopologyConfig

// PaperFabric returns the paper's evaluation fabric: 128 hosts, 8
// leaves, 4 spines, 10/40 Gb/s links, 16 µs RTT (§6).
func PaperFabric() FabricConfig { return harness.PaperTopology() }

// ScaledFabric returns a proportionally scaled-down fabric (32 hosts)
// that runs quickly.
func ScaledFabric() FabricConfig { return harness.ScaledTopology() }

// Fabric is a simulated leaf-spine datacenter running one transport
// scheme.
type Fabric struct {
	eng    *sim.Engine
	net    *netsim.Network
	topo   *harness.Topology
	scheme harness.SchemeConfig
	cfg    FabricConfig
}

// NewFabric builds a fabric with the scheme's default (Table 2)
// parameters.
func NewFabric(cfg FabricConfig, s Scheme) *Fabric {
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	scheme := harness.DefaultConfig(s, cfg)
	scheme.DGDPriceRef = transport.PriceRefFor(core.ProportionalFair(), cfg.HostLink.Float()/3)
	net.QueueFactory = scheme.QueueFactory()
	topo := harness.NewTopology(net, cfg)
	scheme.AttachAgents(net)
	return &Fabric{eng: eng, net: net, topo: topo, scheme: scheme, cfg: cfg}
}

// Hosts returns the number of hosts.
func (f *Fabric) Hosts() int { return len(f.topo.Hosts) }

// Flow is a transport connection on a Fabric.
type Flow struct {
	inner *netsim.Flow
	fab   *Fabric
}

// StartFlow starts a flow from host src to host dst through the given
// spine (ECMP path choice), with sizeBytes payload (0 = unbounded),
// using utility u, at the current simulation time.
func (f *Fabric) StartFlow(src, dst, spine int, u Utility) *Flow {
	return f.StartSizedFlow(src, dst, spine, 0, u)
}

// StartSizedFlow is StartFlow with a finite payload size.
func (f *Fabric) StartSizedFlow(src, dst, spine int, sizeBytes int64, u Utility) *Flow {
	fl := f.topo.NewFlow(src, dst, spine, sizeBytes)
	f.scheme.AttachSender(fl, u)
	return f.start(fl, 80*sim.Microsecond)
}

// start meters fl over an EWMA window, starts it at the current
// simulation time and wraps it.
func (f *Fabric) start(fl *netsim.Flow, meter sim.Duration) *Flow {
	fl.Meter = stats.NewRateMeter(meter)
	f.eng.Schedule(f.eng.Now(), fl.Start)
	return &Flow{inner: fl, fab: f}
}

// Run advances the simulation by d (wall-clock of the simulated
// world).
func (f *Fabric) Run(d time.Duration) {
	f.eng.Run(f.eng.Now().Add(sim.FromStd(d)))
}

// Now returns the current simulated time.
func (f *Fabric) Now() time.Duration {
	return time.Duration(int64(f.eng.Now()) / 1000)
}

// Rate returns the flow's receive rate (bits/second), measured with
// the paper's 80 µs EWMA.
func (fl *Flow) Rate() float64 { return fl.inner.Meter.RateAt(fl.fab.eng.Now()) }

// Done reports whether a finite flow has fully arrived.
func (fl *Flow) Done() bool { return fl.inner.Done }

// FCT returns the flow completion time of a finished flow.
func (fl *Flow) FCT() time.Duration { return fl.inner.FCT().Std() }

// Stop ceases transmission.
func (fl *Flow) Stop() { fl.inner.Stop() }

// AggregateFlow is a set of NUMFabric subflows whose total rate is
// governed by one utility: a multipath flow over distinct spine paths
// (resource pooling, Table 1 row 4 / §6.3), or a Tenant whose flows
// have arbitrary endpoints.
type AggregateFlow struct {
	subs []*Flow
	agg  *transport.Aggregate
	fab  *Fabric
}

// Tenant groups flows with arbitrary endpoints under one utility of
// the tenant's total rate (the §8 tenant-aggregate generalization):
// the resource-pooling machinery applied to flows that need not share
// endpoints.
type Tenant = AggregateFlow

// StartAggregateFlow starts subflows src→dst over the given spines,
// pooled under utility u of the aggregate rate. Requires the
// NUMFabric scheme.
func (f *Fabric) StartAggregateFlow(src, dst int, spines []int, u Utility) *AggregateFlow {
	if f.scheme.Scheme != harness.NUMFabric {
		panic("numfabric: resource pooling requires SchemeNUMFabric")
	}
	a := &AggregateFlow{agg: transport.NewAggregate(), fab: f}
	for _, sp := range spines {
		a.AddFlow(src, dst, sp, u)
	}
	return a
}

// NewTenant creates an empty tenant aggregate on the fabric. Requires
// the NUMFabric scheme.
func (f *Fabric) NewTenant() *Tenant {
	if f.scheme.Scheme != harness.NUMFabric {
		panic("numfabric: tenant aggregates require SchemeNUMFabric")
	}
	return &Tenant{agg: transport.NewAggregate(), fab: f}
}

// AddFlow starts an unbounded subflow src→dst through spine; u applies
// to the aggregate's total rate.
func (a *AggregateFlow) AddFlow(src, dst, spine int, u Utility) {
	f := a.fab
	fl := f.topo.NewFlow(src, dst, spine, 0)
	a.agg.Add(transport.NewNUMFabricSender(fl, u, f.scheme.NUMFabric, f.scheme.BaseRTT))
	a.subs = append(a.subs, f.start(fl, 200*sim.Microsecond))
}

// Rate returns the aggregate receive rate in bits/second.
func (a *AggregateFlow) Rate() float64 {
	total := 0.0
	for _, s := range a.subs {
		total += s.Rate()
	}
	return total
}

// Subflows returns the individual subflows.
func (a *AggregateFlow) Subflows() []*Flow { return a.subs }

// Stop halts all subflows.
func (a *AggregateFlow) Stop() {
	for _, s := range a.subs {
		s.Stop()
	}
}

// OracleRates computes the NUM-optimal allocation for the currently
// registered flows (the paper's Oracle), one rate per started flow in
// start order.
func (f *Fabric) OracleRates(utilities []Utility) []float64 {
	p := core.NewProblem(f.net.Capacities())
	for i, fl := range f.net.Flows {
		u := Utility(core.ProportionalFair())
		if i < len(utilities) && utilities[i] != nil {
			u = utilities[i]
		}
		links := make([]int, len(fl.Path))
		for j, port := range fl.Path {
			links[j] = port.LinkID
		}
		p.AddFlow(links, u)
	}
	return oracle.Solve(p, oracle.SolveOptions{}).Rates
}

// --- Re-exported workloads and experiments ---

// WebSearchWorkload returns the heavy-tailed web-search flow-size
// distribution used in §6.1/§6.3.
func WebSearchWorkload() *workload.SizeCDF { return workload.WebSearch() }

// EnterpriseWorkload returns the short-flow-dominated enterprise
// distribution of §6.1.
func EnterpriseWorkload() *workload.SizeCDF { return workload.Enterprise() }

// SemiDynamicConfig configures the §6.1 convergence experiment.
type SemiDynamicConfig = harness.SemiDynamicConfig

// SemiDynamicResult holds per-event convergence times.
type SemiDynamicResult = harness.SemiDynamicResult

// DefaultSemiDynamic returns a scaled-down §6.1 scenario.
func DefaultSemiDynamic(s Scheme) SemiDynamicConfig { return harness.DefaultSemiDynamic(s) }

// PaperSemiDynamic returns the full-scale §6.1 scenario.
func PaperSemiDynamic(s Scheme) SemiDynamicConfig { return harness.PaperSemiDynamic(s) }

// DynamicConfig configures the Poisson dynamic-workload experiment
// (Figure 5).
type DynamicConfig = harness.DynamicConfig

// DefaultDynamic returns a scaled dynamic-workload configuration for
// the scheme, size distribution, and load.
func DefaultDynamic(s Scheme, cdf *workload.SizeCDF, load float64) DynamicConfig {
	return harness.DefaultDynamic(s, cdf, load)
}

// DynamicResult holds per-flow FCT records and deviation statistics.
type DynamicResult = harness.DynamicResult

// EngineType selects the execution engine for experiment drivers: the
// faithful packet-level simulator, the fluid epoch fast path, or the
// event-driven leap fast path.
type EngineType = harness.Engine

// The available engines.
const (
	EnginePacket = harness.EnginePacket
	EngineFluid  = harness.EngineFluid
	EngineLeap   = harness.EngineLeap
)

// ParseEngine parses an engine name ("packet", "fluid", or "leap");
// unknown names error, listing the valid engines.
func ParseEngine(s string) (EngineType, error) { return harness.ParseEngine(s) }

// RunDynamicWith runs the dynamic-workload experiment on the chosen
// engine; EngineFluid runs the identical workload at flow granularity,
// orders of magnitude faster, and EngineLeap runs it event-driven —
// exact completion times, cycles spent only at arrivals/departures.
func RunDynamicWith(e EngineType, cfg DynamicConfig) DynamicResult {
	return harness.RunDynamicWith(e, cfg)
}

// LeapStats is the leap engine's work telemetry — events, allocator
// solves, flows per solve, touched-component sizes, event-batch widths,
// fault degradation, and the global-re-solve counterfactual — surfaced
// on DynamicResult and IncastResult for leap runs.
type LeapStats = leap.Stats

// FluidStats is the fluid epoch engine's work telemetry — epochs,
// allocator solves, and the stationary-allocator skip that reuses
// cached rates across unchanged epochs — surfaced on DynamicResult
// for fluid runs.
type FluidStats = fluid.Stats

// IncastConfig configures the incast burst scenario: N synchronized
// senders converging on one receiver (§6.1-style bursts).
type IncastConfig = harness.IncastConfig

// IncastResult holds per-flow records and per-burst completion times.
type IncastResult = harness.IncastResult

// DefaultIncast returns a scaled incast scenario (16 senders × 64 KB
// bursts into one host).
func DefaultIncast() IncastConfig { return harness.DefaultIncast() }

// RunIncastLeap plays the incast workload through the event-driven
// leap engine — each burst is one allocation plus one batch of
// simultaneous completions, the engine's best case.
func RunIncastLeap(cfg IncastConfig) IncastResult { return harness.RunIncastLeap(cfg) }

// RunSemiDynamicWith runs the §6.1 convergence experiment on the
// chosen engine; EngineLeap runs leap's allocators on the epoch engine
// (leap has no transient to sample).
func RunSemiDynamicWith(e EngineType, cfg SemiDynamicConfig) SemiDynamicResult {
	return harness.RunSemiDynamicWith(e, cfg)
}

// PoolingConfig configures the §6.3 resource-pooling experiment
// (Figure 8).
type PoolingConfig = harness.PoolingConfig

// PoolingResult holds per-pair throughputs.
type PoolingResult = harness.PoolingResult

// DefaultPooling returns a Figure 8 configuration with the given
// subflow count and pooling objective.
func DefaultPooling(subflows int, pooling bool) PoolingConfig {
	return harness.DefaultPooling(subflows, pooling)
}

// RunPoolingWith runs the resource-pooling experiment on the chosen
// engine; EngineFluid plays the identical scenario through fluid
// multipath aggregate groups (fluid.Group), orders of magnitude
// faster, and so does EngineLeap (no finite flow, no event to leap to).
func RunPoolingWith(e EngineType, cfg PoolingConfig) PoolingResult {
	return harness.RunPoolingWith(e, cfg)
}

// FatTreePoolingConfig configures the fluid-only fat-tree
// resource-pooling scenario: multipath aggregates pooling ECMP
// subflows on a k-ary fat-tree, at subflow counts (≥10k) far beyond
// the packet engine's reach.
type FatTreePoolingConfig = harness.FatTreePoolingConfig

// DefaultFatTreePooling returns the ≥10k-subflow fat-tree pooling
// scenario (1280 groups × 8 ECMP subflows on a k=8 fat-tree).
func DefaultFatTreePooling(pooling bool) FatTreePoolingConfig {
	return harness.DefaultFatTreePooling(pooling)
}

// RunFatTreePooling executes the fat-tree pooling scenario on the
// fluid engine.
func RunFatTreePooling(cfg FatTreePoolingConfig) PoolingResult {
	return harness.RunFatTreePooling(cfg)
}

// BWFPoint is one Figure 9 data point (achieved vs BwE-expected
// allocation at one capacity).
type BWFPoint = harness.BWFPoint

// Fig2Flow1 and Fig2Flow2 are the bandwidth functions of the paper's
// Figure 2.
func Fig2Flow1() *BandwidthFunction { return harness.Fig2Flow1() }

// Fig2Flow2 is Figure 2's red flow.
func Fig2Flow2() *BandwidthFunction { return harness.Fig2Flow2() }

// RunBWFCapacitySweep reproduces Figure 9: two Figure 2 flows on a
// variable-capacity bottleneck under NUMFabric. Capacities are in
// bits/second.
func RunBWFCapacitySweep(capacitiesBps []int64, alpha float64, measure time.Duration) []BWFPoint {
	rates := make([]sim.BitRate, len(capacitiesBps))
	for i, c := range capacitiesBps {
		rates[i] = sim.BitRate(c)
	}
	return harness.RunBWFCapacitySweep(rates, alpha, sim.FromStd(measure))
}

// BWFPoolSample is one Figure 10 time-series sample.
type BWFPoolSample = harness.BWFPoolSample

// RunBWFPooling reproduces Figure 10: bandwidth functions combined
// with resource pooling across a capacity step.
func RunBWFPooling(alpha float64, switchAt, runFor, sampleEvery time.Duration) []BWFPoolSample {
	return harness.RunBWFPooling(alpha, sim.FromStd(switchAt), sim.FromStd(runFor), sim.FromStd(sampleEvery))
}

// BwEAllocation returns the reference BwE water-filling allocation for
// flows with the given bandwidth functions sharing one link.
func BwEAllocation(capacityBps float64, funcs []*BandwidthFunction) []float64 {
	return oracle.BwESingleLink(capacityBps, funcs)
}

// StartSRPTFlow starts a finite flow whose utility tracks its
// REMAINING size (Shortest-Remaining-Processing-Time, §2), refreshed
// every 100 µs. Requires the NUMFabric scheme.
func (f *Fabric) StartSRPTFlow(src, dst, spine int, sizeBytes int64) *Flow {
	if f.scheme.Scheme != harness.NUMFabric {
		panic("numfabric: SRPT requires SchemeNUMFabric")
	}
	fl := f.topo.NewFlow(src, dst, spine, sizeBytes)
	s := transport.NewNUMFabricSender(fl, core.SRPTMin(sizeBytes, core.FCTEpsilon), f.scheme.NUMFabric, f.scheme.BaseRTT)
	transport.AttachSRPT(s)
	return f.start(fl, 80*sim.Microsecond)
}

// StartDeadlineFlow starts a finite flow whose priority sharpens as
// its deadline (relative to now) approaches (Earliest-Deadline-First,
// §2). Requires the NUMFabric scheme.
func (f *Fabric) StartDeadlineFlow(src, dst, spine int, sizeBytes int64, deadline time.Duration) *Flow {
	if f.scheme.Scheme != harness.NUMFabric {
		panic("numfabric: deadline scheduling requires SchemeNUMFabric")
	}
	fl := f.topo.NewFlow(src, dst, spine, sizeBytes)
	s := transport.NewNUMFabricSender(fl, core.Deadline(deadline.Seconds(), core.FCTEpsilon), f.scheme.NUMFabric, f.scheme.BaseRTT)
	transport.AttachDeadline(s, f.eng.Now().Add(sim.FromStd(deadline)))
	return f.start(fl, 80*sim.Microsecond)
}
