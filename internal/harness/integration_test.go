package harness

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
)

// runScheme builds a scaled fabric, starts flows (src, dst, weight)
// under the given scheme with weighted proportional-fair utilities,
// runs for d, and returns the metered receive rates.
func runScheme(t *testing.T, s Scheme, flows [][3]int, d sim.Duration) []float64 {
	t.Helper()
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	tc := ScaledTopology()
	cfg := DefaultConfig(s, tc)
	cfg.SetUtilityHint(core.ProportionalFair(), 5e9)
	net.QueueFactory = cfg.QueueFactory()
	topo := NewTopology(net, tc)
	cfg.AttachAgents(net)

	var fs []*netsim.Flow
	for _, spec := range flows {
		f := topo.NewFlow(spec[0], spec[1], 0, 0)
		u := core.NewWeightedAlphaFair(1, float64(spec[2]))
		cfg.AttachSender(net, f, u)
		f.Meter = stats.NewRateMeter(80 * sim.Microsecond)
		fs = append(fs, f)
		eng.Schedule(0, f.Start)
	}
	eng.Run(sim.Time(d))
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = f.Meter.Rate()
	}
	return out
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / want
}

func TestNUMFabricTwoFlowsFairShare(t *testing.T) {
	// Two flows into the same host NIC: bottleneck 10G, equal weights.
	rates := runScheme(t, NUMFabric, [][3]int{{0, 9, 1}, {1, 9, 1}}, 5*sim.Millisecond)
	for i, r := range rates {
		if relErr(r, 5e9) > 0.1 {
			t.Errorf("flow %d rate = %.3g, want 5e9 +-10%%", i, r)
		}
	}
}

func TestNUMFabricWeightedShare(t *testing.T) {
	// Weighted proportional fairness 1:3 on a shared 10G bottleneck.
	rates := runScheme(t, NUMFabric, [][3]int{{0, 9, 1}, {1, 9, 3}}, 8*sim.Millisecond)
	if relErr(rates[0], 2.5e9) > 0.15 {
		t.Errorf("flow 0 rate = %.3g, want 2.5e9", rates[0])
	}
	if relErr(rates[1], 7.5e9) > 0.15 {
		t.Errorf("flow 1 rate = %.3g, want 7.5e9", rates[1])
	}
}

func TestNUMFabricMultiBottleneck(t *testing.T) {
	// Parking lot across leaves: f0 h0->h9, f1 h8->h9 (bottleneck at
	// h9's NIC), f2 h0->h2 shares h0 uplink... simpler: two distinct
	// bottlenecks: f0,f1 -> h9 (share 10G), f2 -> h10 alone (gets 10G).
	rates := runScheme(t, NUMFabric,
		[][3]int{{0, 9, 1}, {1, 9, 1}, {2, 10, 1}}, 5*sim.Millisecond)
	if relErr(rates[0], 5e9) > 0.1 || relErr(rates[1], 5e9) > 0.1 {
		t.Errorf("shared flows = %.3g, %.3g, want 5e9", rates[0], rates[1])
	}
	if relErr(rates[2], 10e9) > 0.1 {
		t.Errorf("solo flow = %.3g, want 10e9", rates[2])
	}
}

func TestDGDTwoFlowsFairShare(t *testing.T) {
	rates := runScheme(t, DGD, [][3]int{{0, 9, 1}, {1, 9, 1}}, 10*sim.Millisecond)
	for i, r := range rates {
		if relErr(r, 5e9) > 0.15 {
			t.Errorf("flow %d rate = %.3g, want 5e9 +-15%%", i, r)
		}
	}
}

func TestRCPTwoFlowsFairShare(t *testing.T) {
	rates := runScheme(t, RCP, [][3]int{{0, 9, 1}, {1, 9, 1}}, 10*sim.Millisecond)
	for i, r := range rates {
		if relErr(r, 5e9) > 0.15 {
			t.Errorf("flow %d rate = %.3g, want 5e9 +-15%%", i, r)
		}
	}
}

func TestDCTCPTwoFlowsRoughlyFair(t *testing.T) {
	// DCTCP is fair on long timescales; average over the run.
	rates := runScheme(t, DCTCP, [][3]int{{0, 9, 1}, {1, 9, 1}}, 20*sim.Millisecond)
	total := rates[0] + rates[1]
	if relErr(total, 10e9) > 0.2 {
		t.Errorf("total = %.3g, want ~10e9", total)
	}
	ratio := rates[0] / rates[1]
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("DCTCP long-run ratio = %.2f, want within [0.4, 2.5]", ratio)
	}
}

func TestPFabricShortFlowPreempts(t *testing.T) {
	// A long flow is underway; a short flow starts and should finish
	// near its ideal time because pFabric gives it strict priority.
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	tc := ScaledTopology()
	cfg := DefaultConfig(PFabric, tc)
	net.QueueFactory = cfg.QueueFactory()
	topo := NewTopology(net, tc)
	cfg.AttachAgents(net)

	long := topo.NewFlow(0, 9, 0, 50<<20)
	short := topo.NewFlow(1, 9, 0, 100<<10) // 100 KB
	cfg.AttachSender(net, long, nil)
	cfg.AttachSender(net, short, nil)
	eng.Schedule(0, long.Start)
	eng.Schedule(sim.Time(2*sim.Millisecond), short.Start)
	eng.Run(sim.Time(20 * sim.Millisecond))

	if !short.Done {
		t.Fatal("short flow did not complete")
	}
	// Ideal: 100KB at 10G ~ 82us + RTT. Allow generous headroom for
	// the store-and-forward pipeline; preemption keeps it near-ideal.
	fct := short.FCT()
	if fct > 400*sim.Microsecond {
		t.Errorf("short-flow FCT under pFabric = %v, want < 400us", fct)
	}
	if long.RcvdBytes == 0 {
		t.Error("long flow starved entirely")
	}
}

func TestTopologyRoutesAreConsistent(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	tc := ScaledTopology()
	cfg := DefaultConfig(NUMFabric, tc)
	net.QueueFactory = cfg.QueueFactory()
	topo := NewTopology(net, tc)

	if len(topo.Hosts) != tc.Leaves*tc.HostsPerLeaf {
		t.Fatalf("%d hosts", len(topo.Hosts))
	}
	// Cross-leaf route has 4 hops, intra-leaf 2, and the flow's reverse
	// path mirrors the forward path's cables.
	f := topo.NewFlow(0, 9, 1, 0)
	fwd, rev := f.Path, f.Rev
	if len(fwd) != 4 || len(rev) != 4 {
		t.Fatalf("cross-leaf hops fwd=%d rev=%d", len(fwd), len(rev))
	}
	for i := range fwd {
		j := len(rev) - 1 - i
		if fwd[i].Node != rev[j].Peer || fwd[i].Peer != rev[j].Node {
			t.Errorf("hop %d: fwd %v not mirrored by rev %v", i, fwd[i], rev[j])
		}
	}
	if fwd2 := topo.Route(0, 1, 0); len(fwd2) != 2 {
		t.Errorf("intra-leaf hops = %d, want 2", len(fwd2))
	}
}

// TestPacketFlowsReverseTheirCables: every packet flow the harness wires
// — started on the leaf-spine packet fabric, made by Topology.NewFlow,
// or started on the hand-wired Figure 9 and 10 networks — runs from its
// first link's node to its last link's peer, and its ACKs return over
// the same cables: Rev[k-1-i] is Path[i] with Node and Peer swapped.
func TestPacketFlowsReverseTheirCables(t *testing.T) {
	tc := ScaledTopology()
	sub := newPacketFabric(tc, DefaultConfig(NUMFabric, tc))
	var paths [][]int
	for src := range sub.topo.Hosts {
		for dst := range sub.topo.Hosts {
			for pick := 0; src != dst && pick <= tc.Spines; pick++ {
				paths = append(paths, sub.topo.appendRoute(nil, src, dst, pick))
			}
		}
	}
	sub.start(paths, core.ProportionalFair(), false)

	paper := NewFluidTopology(PaperTopology())
	for src := range paper.Hosts {
		for dst := range paper.Hosts {
			for pick := 0; src != dst && pick <= len(paper.Spines); pick++ {
				paper.NewFlow(src, dst, pick, 0)
			}
		}
	}
	fig9, _, _ := newBWFSweepNet(10*sim.Gbps, 5)
	fig10, _, _ := newBWFPoolNet(5, sim.Millisecond)

	for _, c := range []struct {
		name string
		net  *netsim.Network
		want int
	}{{"leaf-spine", sub.net, len(paths)}, {"Topology.NewFlow", paper.Net, 128 * 127 * 5}, {"fig9", fig9.net, 2}, {"fig10", fig10.net, 4}} {
		if len(c.net.Flows) != c.want {
			t.Fatalf("%s: %d flows, want %d", c.name, len(c.net.Flows), c.want)
		}
		for _, f := range c.net.Flows {
			k := len(f.Path)
			if len(f.Rev) != k || f.Src != f.Path[0].Node || f.Dst != f.Path[k-1].Peer {
				t.Fatalf("%s flow %d: %s→%s over %d links, %d back", c.name, f.ID, f.Src.Name, f.Dst.Name, k, len(f.Rev))
			}
			for i, p := range f.Path {
				if r := f.Rev[k-1-i]; r.Node != p.Peer || r.Peer != p.Node {
					t.Fatalf("%s flow %d: Rev[%d] is link %d %s→%s, want link %d %s→%s reversed",
						c.name, f.ID, k-1-i, r.LinkID, r.Node.Name, r.Peer.Name, p.LinkID, p.Node.Name, p.Peer.Name)
				}
			}
		}
	}
}

func TestBaseRTTMatchesPaper(t *testing.T) {
	// The paper's network RTT is 16 µs; our derived d0 should be close.
	rtt := PaperTopology().BaseRTT()
	us := float64(rtt) / 1e6
	if us < 12 || us > 20 {
		t.Errorf("base RTT = %.2fus, want ~16us", us)
	}
}
