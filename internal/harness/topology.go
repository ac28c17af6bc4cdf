// Package harness assembles full experiments: topologies, scheme
// wiring, workload playback, convergence measurement, and the
// per-figure experiment drivers of §6. Each scenario family — dynamic
// (Figures 5 and 7, incast, the fat-tree scale experiments),
// semi-dynamic (Figures 4 and 6) and resource pooling (Figure 8 and
// its fat-tree variant) — is written once, over the small per-engine
// substrates of substrate.go and, for the dynamic family, either fabric;
// RunDynamicWith, RunSemiDynamicWith, RunPoolingWith and RunFCTWith
// take the Engine and are the only place one is chosen.
package harness

import (
	"fmt"

	"numfabric/internal/fluid"
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// Topology is a leaf-spine datacenter fabric (§6: 128 servers, 8
// leaves with 10 Gb/s host links, 4 spines with 40 Gb/s uplinks, full
// bisection bandwidth), parameterized so experiments can run scaled
// down.
type Topology struct {
	Net    *netsim.Network
	Hosts  []*netsim.Node
	Spines []*netsim.Node

	HostsPerLeaf int
	hostRate     sim.BitRate

	// The directed-link ids appendRoute reads: host h's link up to its
	// leaf and down from it, and leaf l's link up to spine s
	// (leafUp[l][s]) and down from it (leafDown[l][s]).
	hostUp, hostDown []int
	leafUp, leafDown [][]int
}

// TopologyConfig sizes a leaf-spine fabric.
type TopologyConfig struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int
	HostLink     sim.BitRate  // host↔leaf speed (paper: 10 Gb/s)
	SpineLink    sim.BitRate  // leaf↔spine speed (paper: 40 Gb/s)
	LinkDelay    sim.Duration // per-hop, one-way propagation delay
}

// PaperTopology is the evaluation fabric of §6: full bisection
// bandwidth, network RTT 16 µs. With four hops each way and
// store-and-forward, a 2 µs per-hop delay gives a zero-load data RTT
// of ≈16 µs for full-size packets.
func PaperTopology() TopologyConfig {
	return TopologyConfig{
		Leaves:       8,
		Spines:       4,
		HostsPerLeaf: 16,
		HostLink:     10 * sim.Gbps,
		SpineLink:    40 * sim.Gbps,
		LinkDelay:    2 * sim.Microsecond,
	}
}

// ScaledTopology returns a reduced fabric with the same proportions
// (used by tests and benches so they finish quickly): 4 leaves ×
// 8 hosts with 2 spines.
func ScaledTopology() TopologyConfig {
	return TopologyConfig{
		Leaves:       4,
		Spines:       2,
		HostsPerLeaf: 8,
		HostLink:     10 * sim.Gbps,
		SpineLink:    40 * sim.Gbps,
		LinkDelay:    2 * sim.Microsecond,
	}
}

// BaseRTT returns the zero-queue round-trip time for a full-size
// packet crossing the fabric (host→leaf→spine→leaf→host and the ACK
// back), the d0 of Swift's window calculation.
func (c TopologyConfig) BaseRTT() sim.Duration {
	// Data: per hop, serialization at the slower of the two rates
	// bounds the worst case; use host-link serialization for the two
	// edge hops and spine-link for the two core hops.
	d := sim.Duration(0)
	d += 2 * (c.HostLink.TxTime(netsim.MTU) + c.LinkDelay)
	d += 2 * (c.SpineLink.TxTime(netsim.MTU) + c.LinkDelay)
	// ACK path: serialization of 64 B is negligible but the
	// propagation is not.
	d += 2 * (c.HostLink.TxTime(netsim.AckSize) + c.LinkDelay)
	d += 2 * (c.SpineLink.TxTime(netsim.AckSize) + c.LinkDelay)
	return d
}

// NewTopology builds the fabric on net. It panics unless every count
// of cfg is at least 1.
func NewTopology(net *netsim.Network, cfg TopologyConfig) *Topology {
	if cfg.Leaves < 1 || cfg.Spines < 1 || cfg.HostsPerLeaf < 1 {
		panic(fmt.Sprintf("harness: NewTopology: Leaves = %d, Spines = %d, HostsPerLeaf = %d; want each ≥ 1", cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf))
	}
	t := &Topology{Net: net, HostsPerLeaf: cfg.HostsPerLeaf, hostRate: cfg.HostLink}
	for s := 0; s < cfg.Spines; s++ {
		t.Spines = append(t.Spines, net.NewNode(fmt.Sprintf("spine%d", s)))
	}
	for l := 0; l < cfg.Leaves; l++ {
		leaf := net.NewNode(fmt.Sprintf("leaf%d", l))
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			host := net.NewNode(fmt.Sprintf("h%d", l*cfg.HostsPerLeaf+h))
			t.Hosts = append(t.Hosts, host)
			up, down := net.Connect(host, leaf, cfg.HostLink, cfg.LinkDelay)
			t.hostUp, t.hostDown = append(t.hostUp, up.LinkID), append(t.hostDown, down.LinkID)
		}
		ups, downs := make([]int, cfg.Spines), make([]int, cfg.Spines)
		for s, spine := range t.Spines {
			up, down := net.Connect(leaf, spine, cfg.SpineLink, cfg.LinkDelay)
			ups[s], downs[s] = up.LinkID, down.LinkID
		}
		t.leafUp, t.leafDown = append(t.leafUp, ups), append(t.leafDown, downs)
	}
	return t
}

// Route returns the directed-link ids of the path from host src to
// host dst, crossing spine spine % Spines when their leaves differ
// (spine selects the ECMP path for multipath experiments). It panics
// naming a host outside the fabric or a negative spine.
func (t *Topology) Route(src, dst, spine int) []int {
	switch n := len(t.Hosts); {
	case src < 0 || src >= n || dst < 0 || dst >= n:
		panic(fmt.Sprintf("harness: Route: hosts %d→%d, want both in [0, %d)", src, dst, n))
	case spine < 0:
		panic(fmt.Sprintf("harness: Route: spine %d, want ≥ 0", spine))
	}
	return t.appendRoute(nil, src, dst, spine)
}

// NewFlow registers a flow between host indices via the chosen spine.
func (t *Topology) NewFlow(src, dst, spine int, size int64) *netsim.Flow {
	return t.Net.NewFlow(t.Route(src, dst, spine), size)
}

// fabric is what the dynamic family needs of a topology — the
// leaf-spine Topology or a k-ary fat-tree: a schedule is arrivals plus
// one ECMP pick each, and a flow's path is routed at admission.
type fabric interface {
	hosts() int
	hostLink() sim.BitRate
	// fanOut is the range of the ECMP pick drawn per arrival.
	fanOut() int
	// appendRoute appends the directed-link ids of the pick-th path
	// from host src to host dst to buf.
	appendRoute(buf []int, src, dst, pick int) []int
	// network is the flow-level engines' view of the links.
	network() *fluid.Network
}

func (t *Topology) hosts() int              { return len(t.Hosts) }
func (t *Topology) hostLink() sim.BitRate   { return t.hostRate }
func (t *Topology) fanOut() int             { return len(t.Spines) }
func (t *Topology) network() *fluid.Network { return fluid.NewNetwork(t.Net.Capacities()) }

// appendRoute appends the link ids of Route's path, read from the id
// tables NewTopology built, to buf. It leaves the range checks to Route:
// playArrivals draws its hosts and picks in range.
func (t *Topology) appendRoute(buf []int, src, dst, pick int) []int {
	if src == dst {
		panic("harness: flow to self")
	}
	up, down := t.hostUp[src], t.hostDown[dst]
	ls, ld := src/t.HostsPerLeaf, dst/t.HostsPerLeaf
	if ls == ld {
		return append(buf, up, down)
	}
	sp := pick % len(t.Spines)
	return append(buf, up, t.leafUp[ls][sp], t.leafDown[ld][sp], down)
}

// fatTree is a fluid.FatTree as a fabric. Its network is the tree's
// own, so link faults land on the capacities the caller's tree reports.
type fatTree struct{ *fluid.FatTree }

func (t fatTree) hosts() int              { return t.Hosts() }
func (t fatTree) hostLink() sim.BitRate   { return sim.BitRate(t.Rate) }
func (t fatTree) fanOut() int             { return t.K * t.K / 4 }
func (t fatTree) network() *fluid.Network { return t.Net }

func (t fatTree) appendRoute(buf []int, src, dst, pick int) []int {
	return t.AppendRoute(buf, src, dst, pick)
}
