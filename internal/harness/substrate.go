package harness

import (
	"math"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/transport"
)

// Every §6 scenario — workload draw, RNG order, event script,
// convergence detector, result assembly — is written once (dynamic.go,
// convergence.go, pooling.go) over the engine surfaces below; the
// Run*With entry points are the only place an Engine becomes one.
// Paths cross the seam as directed-link ids, the form Topology.Route
// paths, oracle problems and the flow-level engines share. What
// differs per engine stays behind it: how a flow is wired, how time
// advances, what a "rate" is (an EWMA meter on packets, the
// allocator's exact rate on epochs), and the clock's arithmetic.

// flowPlayer is the dynamic family's surface (Figures 5 and 7,
// incast): finite flows admitted at their arrival instants, in arrival
// order.
type flowPlayer interface {
	// admit schedules the next flow (they are numbered in admission
	// order); links is only read during the call.
	admit(links []int, u core.Utility, size int64, at sim.Time)
	// advance, called between admissions with the instant of the arrival
	// just admitted, may play what needs no later arrival and harvest
	// what finishes. Only leap does; the others play in run.
	advance(fed sim.Time, records []FlowRecord)
	run(until sim.Time)
	// harvest, called once run returns, writes every finished flow's FCT
	// in seconds to records[its admission number] — on leap, every flow
	// finished since advance last harvested.
	harvest(records []FlowRecord)
}

// flowStarter is the pooling family's surface (Figure 8 and its
// fat-tree variant): unbounded flows started now and read later.
type flowStarter interface {
	// start launches one subflow per path — pooled under u of their
	// total rate, or each under its own u — and returns a handle.
	start(paths [][]int, u core.Utility, pooled bool) int
	// rate is the handle's total receive rate in bits/second.
	rate(h int) float64
}

// clockUnit is an engine's native time arithmetic: integer picoseconds
// on the packet simulator, accumulated float seconds on the epoch
// engine. The convergence detector subtracts and compares instants in
// this unit only, so neither engine's timing is rounded through the
// other's.
type clockUnit interface{ sim.Time | float64 }

// sampledFabric is the semi-dynamic family's surface (Figures 4 and
// 6): flows that start and stop, sampled on the engine's clock.
type sampledFabric[T clockUnit] interface {
	flowStarter
	stop(h int)
	// sample advances time, calling tick after every sampling period,
	// until tick returns false.
	sample(tick func(now T) bool)
	// span is a configured duration in clock units; seconds, a clock
	// interval in seconds.
	span(d sim.Duration) T
	seconds(d T) float64
	// riseTime is the measurement lag in seconds to subtract from a
	// settling time read off rate.
	riseTime() float64
}

// packetFabric runs a scheme's packet transport on a netsim network:
// a leaf-spine Topology, or links the caller wires by hand.
type packetFabric struct {
	eng    *sim.Engine
	net    *netsim.Network
	topo   *Topology // nil on a hand-wired network
	scheme SchemeConfig

	// meterTau is the EWMA time constant of the rate meter on every
	// started flow; its 90% rise time ln(10)·τ is the fabric's
	// riseTime (§6.1).
	meterTau sim.Duration

	started  [][]*netsim.Flow // by start handle
	admitted []*netsim.Flow   // by admission number; nil until arrival
}

// newPacketNet returns a fabric with no links yet; the scheme's agents
// go on once they are wired.
func newPacketNet(scheme SchemeConfig) *packetFabric {
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	net.QueueFactory = scheme.QueueFactory()
	return &packetFabric{eng: eng, net: net, scheme: scheme}
}

// newPacketFabric builds the leaf-spine fabric and installs the
// scheme's link agents; calibrate scheme (DGDPriceRef, RCPAlpha)
// beforehand.
func newPacketFabric(topo TopologyConfig, scheme SchemeConfig) *packetFabric {
	p := newPacketNet(scheme)
	p.topo = NewTopology(p.net, topo)
	scheme.AttachAgents(p.net)
	return p
}

func (p *packetFabric) admit(links []int, u core.Utility, size int64, at sim.Time) {
	i := len(p.admitted)
	p.admitted = append(p.admitted, nil)
	links = append([]int(nil), links...)
	p.eng.Schedule(at, func() {
		f := p.net.NewFlow(links, size)
		p.admitted[i] = f
		p.scheme.AttachSender(f, u)
		f.Start()
	})
}

// advance does nothing: admit is a Schedule call, and arrivals scheduled
// between other events would take other same-instant tie-break numbers.
func (p *packetFabric) advance(sim.Time, []FlowRecord) {}

func (p *packetFabric) run(until sim.Time) { p.eng.Run(until) }

func (p *packetFabric) harvest(records []FlowRecord) {
	for i, f := range p.admitted {
		if f != nil && f.Done {
			records[i].FCT = f.FCT().Seconds()
		}
	}
}

// start wires every subflow before starting any, so a pooled sender's
// first window already sees its whole aggregate. Pooling is NUMFabric's
// (the aggregate couples NUMFabric senders).
func (p *packetFabric) start(paths [][]int, u core.Utility, pooled bool) int {
	var agg *transport.Aggregate
	if pooled {
		agg = transport.NewAggregate()
	}
	flows := make([]*netsim.Flow, len(paths))
	for i, links := range paths {
		f := p.net.NewFlow(links, 0)
		s := p.scheme.AttachSender(f, u)
		if pooled {
			agg.Add(s.(*transport.NUMFabricSender))
		}
		f.Meter = stats.NewRateMeter(p.meterTau)
		flows[i] = f
	}
	for _, f := range flows {
		f.Start()
	}
	p.started = append(p.started, flows)
	return len(p.started) - 1
}

func (p *packetFabric) stop(h int) {
	for _, f := range p.started[h] {
		f.Stop()
	}
}

func (p *packetFabric) rate(h int) float64 {
	total := 0.0
	for _, f := range p.started[h] {
		total += f.Meter.RateAt(p.eng.Now())
	}
	return total
}

func (p *packetFabric) sample(tick func(now sim.Time) bool) {
	p.eng.Every(sim.Time(samplePeriod), samplePeriod, func() {
		if !tick(p.eng.Now()) {
			p.eng.Stop()
		}
	})
	p.eng.Run(sim.Forever)
}

func (p *packetFabric) span(d sim.Duration) sim.Time { return sim.Time(d) }
func (p *packetFabric) seconds(d sim.Time) float64   { return sim.Duration(d).Seconds() }
func (p *packetFabric) riseTime() float64            { return math.Log(10) * p.meterTau.Seconds() }

// flowLevel plays finite flows through a flow-level engine: the epoch
// engine, leap or, in tests, refsim. None models propagation, so every
// completion gets the leaf-spine fabric's base RTT added to stay
// comparable with packet FCTs and the Oracle ideals (none on a
// fat-tree: DynamicConfig.baseRTT).
type flowLevel struct {
	eng interface {
		AddFlow(links []int, u core.Utility, sizeBytes int64, at float64) *fluid.Flow
		Run(until float64)
		Finished() []*fluid.Flow
	}
	baseRTT float64
	// leap is eng when that is the leap engine: it is stepped between
	// admissions, and its finished flows are released once harvested.
	leap *leap.Engine
	// number[id] is the admission number of the flow holding Flow.ID id.
	// On leap ids recycle, so it is as long as the most flows the engine
	// held at once; n counts admissions.
	number []int32
	n      int32
}

// releaseEvery is how many finished flows leap may hold before they are
// harvested and released. Small keeps the tables the size of the live
// set and in cache: on the million-flow leapfct 512 and 64 ran 2–3 %
// faster than 4096 in each of three rounds.
const releaseEvery = 512

// Every flow-level engine copies the path on AddFlow.
func (e *flowLevel) admit(links []int, u core.Utility, size int64, at sim.Time) {
	f := e.eng.AddFlow(links, u, size, at.Seconds())
	for f.ID >= len(e.number) {
		e.number = append(e.number, 0)
	}
	e.number[f.ID] = e.n
	e.n++
}

// advance steps leap while the arrival fed last lies strictly after
// Now. Then every arrival ≤ Now is in the engine and a later one bounds
// its lookahead, so each Step sees the next arrival and the next
// completion it would see with the whole schedule preloaded: same FCT
// bits, same Stats. (Run(next arrival) would not do: stopping at a
// deadline materializes the lazy drain, which moves bits.)
func (e *flowLevel) advance(fed sim.Time, records []FlowRecord) {
	for e.leap != nil && fed.Seconds() > e.leap.Now() {
		e.leap.Step()
		if len(e.leap.Finished()) >= releaseEvery {
			e.harvest(records)
		}
	}
}

func (e *flowLevel) run(until sim.Time) { e.eng.Run(until.Seconds()) }

func (e *flowLevel) harvest(records []FlowRecord) {
	for _, f := range e.eng.Finished() {
		records[e.number[f.ID]].FCT = f.FCT() + e.baseRTT
	}
	if e.leap != nil {
		e.leap.ReleaseFinished()
	}
}

// epochFabric runs unbounded flows on the epoch engine: one allocator
// step per epoch, sampled every epoch, rates exact (no meter, so no
// rise time).
type epochFabric struct {
	eng     *fluid.Engine
	started [][]*fluid.Flow // by start handle
}

func (e *epochFabric) start(paths [][]int, u core.Utility, pooled bool) int {
	var flows []*fluid.Flow
	if pooled {
		flows = e.eng.AddGroup(paths, u, e.eng.Now()).Members
	} else {
		for _, links := range paths {
			flows = append(flows, e.eng.AddFlow(links, u, 0, e.eng.Now()))
		}
	}
	e.started = append(e.started, flows)
	return len(e.started) - 1
}

func (e *epochFabric) stop(h int) {
	for _, f := range e.started[h] {
		e.eng.Stop(f)
	}
}

func (e *epochFabric) rate(h int) float64 {
	total := 0.0
	for _, f := range e.started[h] {
		total += f.Rate
	}
	return total
}

func (e *epochFabric) sample(tick func(now float64) bool) {
	for e.eng.Step() && tick(e.eng.Now()) {
	}
}

func (e *epochFabric) span(d sim.Duration) float64 { return d.Seconds() }
func (e *epochFabric) seconds(d float64) float64   { return d }
func (e *epochFabric) riseTime() float64           { return 0 }
