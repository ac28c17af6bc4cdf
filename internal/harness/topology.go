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
	Leaves []*netsim.Node
	Spines []*netsim.Node

	HostsPerLeaf int
	hostRate     sim.BitRate

	// adj[a][b] is the egress port from node a to adjacent node b.
	adj map[*netsim.Node]map[*netsim.Node]*netsim.Port
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

// NewTopology builds the fabric on net.
func NewTopology(net *netsim.Network, cfg TopologyConfig) *Topology {
	t := &Topology{
		Net:          net,
		HostsPerLeaf: cfg.HostsPerLeaf,
		hostRate:     cfg.HostLink,
		adj:          make(map[*netsim.Node]map[*netsim.Node]*netsim.Port),
	}
	for s := 0; s < cfg.Spines; s++ {
		t.Spines = append(t.Spines, net.NewNode(fmt.Sprintf("spine%d", s)))
	}
	for l := 0; l < cfg.Leaves; l++ {
		leaf := net.NewNode(fmt.Sprintf("leaf%d", l))
		t.Leaves = append(t.Leaves, leaf)
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			host := net.NewNode(fmt.Sprintf("h%d", l*cfg.HostsPerLeaf+h))
			t.Hosts = append(t.Hosts, host)
			up, down := t.connect(host, leaf, cfg.HostLink, cfg.LinkDelay)
			t.hostUp, t.hostDown = append(t.hostUp, up.LinkID), append(t.hostDown, down.LinkID)
		}
		ups, downs := make([]int, cfg.Spines), make([]int, cfg.Spines)
		for s, spine := range t.Spines {
			up, down := t.connect(leaf, spine, cfg.SpineLink, cfg.LinkDelay)
			ups[s], downs[s] = up.LinkID, down.LinkID
		}
		t.leafUp, t.leafDown = append(t.leafUp, ups), append(t.leafDown, downs)
	}
	return t
}

// connect links a and b both ways and returns the a→b and b→a ports.
func (t *Topology) connect(a, b *netsim.Node, rate sim.BitRate, delay sim.Duration) (ab, ba *netsim.Port) {
	ab, ba = t.Net.Connect(a, b, rate, delay)
	if t.adj[a] == nil {
		t.adj[a] = make(map[*netsim.Node]*netsim.Port)
	}
	if t.adj[b] == nil {
		t.adj[b] = make(map[*netsim.Node]*netsim.Port)
	}
	t.adj[a][b] = ab
	t.adj[b][a] = ba
	return ab, ba
}

// LeafOf returns the leaf switch of host index h.
func (t *Topology) LeafOf(h int) *netsim.Node {
	return t.Leaves[h/t.HostsPerLeaf]
}

// Port returns the egress port from a to adjacent b.
func (t *Topology) Port(a, b *netsim.Node) *netsim.Port {
	p := t.adj[a][b]
	if p == nil {
		panic(fmt.Sprintf("harness: no link %s->%s", a, b))
	}
	return p
}

// Route computes the forward and reverse source routes between host
// indices src and dst, crossing the given spine (ignored when both
// hosts share a leaf). spine selects the ECMP path for multipath
// experiments.
func (t *Topology) Route(src, dst, spine int) (fwd, rev []*netsim.Port) {
	if src == dst {
		panic("harness: flow to self")
	}
	hs, hd := t.Hosts[src], t.Hosts[dst]
	ls, ld := t.LeafOf(src), t.LeafOf(dst)
	if ls == ld {
		fwd = []*netsim.Port{t.Port(hs, ls), t.Port(ls, hd)}
		rev = []*netsim.Port{t.Port(hd, ld), t.Port(ld, hs)}
		return fwd, rev
	}
	sp := t.Spines[spine%len(t.Spines)]
	fwd = []*netsim.Port{t.Port(hs, ls), t.Port(ls, sp), t.Port(sp, ld), t.Port(ld, hd)}
	rev = []*netsim.Port{t.Port(hd, ld), t.Port(ld, sp), t.Port(sp, ls), t.Port(ls, hs)}
	return fwd, rev
}

// NewFlow registers a flow between host indices via the chosen spine.
func (t *Topology) NewFlow(src, dst, spine int, size int64) *netsim.Flow {
	fwd, rev := t.Route(src, dst, spine)
	return t.Net.NewFlow(t.Hosts[src], t.Hosts[dst], fwd, rev, size)
}

// PathLinkIDs converts a port path to the LinkID form Oracle problems
// use.
func PathLinkIDs(path []*netsim.Port) []int {
	return AppendPathLinkIDs(nil, path)
}

// AppendPathLinkIDs is PathLinkIDs into a reusable buffer: it appends
// path's link ids to dst and returns the extended slice. Drivers that
// feed engines which copy the path on admission (the leap engine's
// table arena, the epoch engine's NewFlow) reuse one buffer across
// every AddFlow instead of allocating a fresh slice per flow.
func AppendPathLinkIDs(dst []int, path []*netsim.Port) []int {
	for _, p := range path {
		dst = append(dst, p.LinkID)
	}
	return dst
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
func (t *Topology) network() *fluid.Network { return FluidNetwork(t) }

// appendRoute appends the link ids of Route's forward path, read from
// the id tables NewTopology built, not from the ports' maps.
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
