package fluid

import "numfabric/internal/core"

// Group is an aggregate (multipath) flow: N unbounded member subflows,
// each with its own path through the link-capacity vector, governed by
// ONE utility of the group's TOTAL rate (resource pooling, Table 1 row
// 4 / §6.3 — Kelly's multipath NUM formulation, a throughput
// objective). It is the fluid analog of transport.Aggregate on the
// packet side and of core.Problem's multi-flow groups on the oracle
// side.
//
// Only the XWI allocator plays a group (Engine.AddGroup rejects any
// other): it runs the paper's §6.3 multipath heuristic on group-level
// weights (see XWI). A group runs until its members are stopped.
type Group struct {
	// U is the group's NUM utility, a function of the total rate.
	U core.Utility
	// Members are the subflows; each carries its own path and rate.
	// Their U field aliases the group's utility.
	Members []*Flow

	// idx is XWI's scratch: in a call whose flows hold a member at
	// index idx, the group's number; otherwise stale.
	idx int
}

// AddMember attaches f as a member subflow: f's utility aliases the
// group's, and the members' initial throughput shares are re-equalized,
// exactly as Engine.AddGroup seeds them.
func (g *Group) AddMember(f *Flow) {
	f.Group = g
	f.U = g.U
	g.Members = append(g.Members, f)
	for _, m := range g.Members {
		m.share = 1 / float64(len(g.Members))
	}
}

// Rate returns the group's total allocated rate in bits/second (the
// sum over members; stopped members contribute zero).
func (g *Group) Rate() float64 {
	total := 0.0
	for _, m := range g.Members {
		total += m.Rate
	}
	return total
}
