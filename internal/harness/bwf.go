package harness

import (
	"numfabric/internal/core"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
	"numfabric/internal/transport"
)

// Fig2Flow1 is the blue bandwidth function of the paper's Figure 2:
// strict priority for the first 10 Gb/s (up to fair share 2), then
// growth at 10 Gb/s per unit share.
func Fig2Flow1() *core.BandwidthFunction {
	const g = 1e9
	return core.MustBandwidthFunction([]core.BWPoint{
		{FairShare: 0, Bandwidth: 0},
		{FairShare: 2, Bandwidth: 10 * g},
		{FairShare: 2.5, Bandwidth: 15 * g},
		{FairShare: 5, Bandwidth: 40 * g},
	})
}

// Fig2Flow2 is the red bandwidth function of Figure 2: nothing until
// fair share 2, then twice flow 1's slope until it caps at 10 Gb/s.
func Fig2Flow2() *core.BandwidthFunction {
	const g = 1e9
	return core.MustBandwidthFunction([]core.BWPoint{
		{FairShare: 0, Bandwidth: 0},
		{FairShare: 2, Bandwidth: 0},
		{FairShare: 2.5, Bandwidth: 10 * g},
		{FairShare: 5, Bandwidth: 10 * g},
	})
}

// BWFPoint is one Figure 9 measurement.
type BWFPoint struct {
	Capacity     float64 // bottleneck capacity, bits/second
	Flow1, Flow2 float64 // achieved throughput
	Want1, Want2 float64 // BwE water-filling expectation
}

// RunBWFCapacitySweep reproduces Figure 9: two flows with the Figure 2
// bandwidth functions compete on one variable-capacity link; the
// achieved allocation should track the BwE water-fill at every
// capacity. alpha is the utility exponent (paper: ~5 suffices).
func RunBWFCapacitySweep(capacities []sim.BitRate, alpha float64, measure sim.Duration) []BWFPoint {
	var out []BWFPoint
	for _, c := range capacities {
		sub, f1, f2 := newBWFSweepNet(c, alpha)
		sub.run(sim.Time(measure))
		want := oracle.BwESingleLink(c.Float(), []*core.BandwidthFunction{Fig2Flow1(), Fig2Flow2()})
		out = append(out, BWFPoint{Capacity: c.Float(), Flow1: sub.rate(f1), Flow2: sub.rate(f2), Want1: want[0], Want2: want[1]})
	}
	return out
}

// newBWFFabric returns an empty NUMFabric packet fabric with the
// control loop tuned for the 20 µs RTT of the hand-wired Figure 9 and
// 10 networks. Wire the links, then attach the scheme's agents.
func newBWFFabric(meterTau sim.Duration) *packetFabric {
	scheme := DefaultConfig(NUMFabric, ScaledTopology())
	scheme.NUMFabric = transport.DefaultNUMFabric(20 * sim.Microsecond)
	sub := newPacketNet(scheme)
	sub.meterTau = meterTau
	return sub
}

// newBWFSweepNet wires Figure 9's network at the given bottleneck
// capacity and starts its two flows.
func newBWFSweepNet(capacity sim.BitRate, alpha float64) (sub *packetFabric, f1, f2 int) {
	sub = newBWFFabric(200 * sim.Microsecond)
	net := sub.net

	// src1, src2 --40G--> s1 --capacity--> s2 --40G--> dst1, dst2.
	src1 := net.NewNode("src1")
	src2 := net.NewNode("src2")
	s1 := net.NewNode("s1")
	s2 := net.NewNode("s2")
	dst1 := net.NewNode("dst1")
	dst2 := net.NewNode("dst2")
	d := 2 * sim.Microsecond
	a1, _ := net.Connect(src1, s1, 40*sim.Gbps, d)
	a2, _ := net.Connect(src2, s1, 40*sim.Gbps, d)
	mid, _ := net.Connect(s1, s2, capacity, d)
	b1, _ := net.Connect(s2, dst1, 40*sim.Gbps, d)
	b2, _ := net.Connect(s2, dst2, 40*sim.Gbps, d)
	sub.scheme.AttachAgents(net)

	f1 = sub.start([][]int{{a1.LinkID, mid.LinkID, b1.LinkID}}, core.NewBWUtility(Fig2Flow1(), alpha), false)
	f2 = sub.start([][]int{{a2.LinkID, mid.LinkID, b2.LinkID}}, core.NewBWUtility(Fig2Flow2(), alpha), false)
	return sub, f1, f2
}

// BWFPoolSample is one time-series sample of Figure 10.
type BWFPoolSample struct {
	At           sim.Time
	Flow1, Flow2 float64 // aggregate throughputs, bits/second
}

// RunBWFPooling reproduces Figure 10: bandwidth functions combined
// with resource pooling. Flow 1 owns a 5 Gb/s private link, flow 2 a
// 3 Gb/s private link, and both pool a shared middle link whose
// capacity steps from 5 Gb/s to 17 Gb/s at switchAt. The utilities
// apply the Figure 2 bandwidth functions to each flow's aggregate
// rate. Expected: (10, 3) before the step, (15, 10) after.
func RunBWFPooling(alpha float64, switchAt, runFor sim.Duration, sampleEvery sim.Duration) []BWFPoolSample {
	sub, flowA, flowB := newBWFPoolNet(alpha, switchAt)
	var samples []BWFPoolSample
	sub.eng.Every(sim.Time(sampleEvery), sampleEvery, func() {
		samples = append(samples, BWFPoolSample{At: sub.eng.Now(), Flow1: sub.rate(flowA), Flow2: sub.rate(flowB)})
	})
	sub.run(sim.Time(runFor))
	return samples
}

// newBWFPoolNet wires Figure 10's network, starts its two pooled flows
// and schedules the middle link's capacity step.
func newBWFPoolNet(alpha float64, switchAt sim.Duration) (sub *packetFabric, flowA, flowB int) {
	sub = newBWFFabric(300 * sim.Microsecond)
	net := sub.net

	srcA := net.NewNode("srcA")
	srcB := net.NewNode("srcB")
	r1 := net.NewNode("r1")
	r2 := net.NewNode("r2")
	dstA := net.NewNode("dstA")
	dstB := net.NewNode("dstB")
	d := 2 * sim.Microsecond
	big := 40 * sim.Gbps

	// Private paths.
	topA, _ := net.Connect(srcA, dstA, 5*sim.Gbps, d)
	botB, _ := net.Connect(srcB, dstB, 3*sim.Gbps, d)
	// Shared middle path.
	inA, _ := net.Connect(srcA, r1, big, d)
	inB, _ := net.Connect(srcB, r1, big, d)
	mid, midR := net.Connect(r1, r2, 5*sim.Gbps, d)
	outA, _ := net.Connect(r2, dstA, big, d)
	outB, _ := net.Connect(r2, dstB, big, d)
	sub.scheme.AttachAgents(net)

	// Each flow pools its private path with the shared one.
	flowA = sub.start([][]int{{topA.LinkID}, {inA.LinkID, mid.LinkID, outA.LinkID}},
		core.NewBWUtility(Fig2Flow1(), alpha), true)
	flowB = sub.start([][]int{{botB.LinkID}, {inB.LinkID, mid.LinkID, outB.LinkID}},
		core.NewBWUtility(Fig2Flow2(), alpha), true)

	// Capacity step: X = 5 → 17 Gb/s (both directions of the cable).
	sub.eng.Schedule(sim.Time(switchAt), func() {
		mid.Rate = 17 * sim.Gbps
		midR.Rate = 17 * sim.Gbps
	})
	return sub, flowA, flowB
}
