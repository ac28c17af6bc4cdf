package fluid

import (
	"math"

	"numfabric/internal/core"
)

// Group is an aggregate (multipath) flow: N member subflows, each with
// its own path through the link-capacity vector, governed by ONE
// utility of the group's TOTAL rate (resource pooling, Table 1 row 4 /
// §6.3 — Kelly's multipath NUM formulation). It is the fluid analog of
// transport.Aggregate on the packet side and of core.Problem's
// multi-flow groups on the oracle side.
//
// Allocators split the group's demand across members: WaterFill
// iterates a bottleneck-aware share split, XWI and DGD run their price
// dynamics on group-level weights (see each allocator's doc), and
// Oracle solves the exact multipath NUM problem. A finite group drains
// one shared payload at the members' total rate and completes as a
// unit.
type Group struct {
	// ID is the engine-assigned group index, dense in creation order.
	ID int
	// U is the group's NUM utility, a function of the total rate.
	U core.Utility
	// Members are the subflows; each carries its own path and rate.
	// Their U field aliases the group's utility and their SizeBytes is
	// zero (the payload lives on the group).
	Members []*Flow
	// Weight is the group's weighted-max-min weight (default 1), split
	// across members by the WaterFill allocator.
	Weight float64
	// SizeBytes is the shared payload; 0 means unbounded.
	SizeBytes int64
	// Arrive is the arrival time in seconds.
	Arrive float64

	// Remaining is the payload left to drain, in bytes.
	Remaining float64
	// Finish is the completion time in seconds (NaN while running).
	Finish float64

	// pos is the group's index in the engine's active-group slice (-1
	// when not active), for O(1) removal.
	pos int
	// stamp, gid, aggRate, qmin, and scan are allocator scan scratch:
	// stamp marks the group as seen in the current pass, gid maps it
	// to a problem-group index (Oracle), aggRate always holds the
	// members' most recently allocated total rate, qmin the minimum
	// member path price (DGD), and scan is a spare per-pass
	// accumulator (member counts, share sums).
	stamp   int64
	gid     int
	aggRate float64
	qmin    float64
	scan    float64
}

// AddMember attaches f as a member subflow: f's utility aliases the
// group's, any payload f carries moves into the group's shared
// SizeBytes/Remaining (a member's own stay zero — members drain only
// through the group), and the members' initial throughput shares are
// re-equalized, exactly as AddGroup seeds them.
func (g *Group) AddMember(f *Flow) {
	f.Group = g
	f.U = g.U
	if f.SizeBytes != 0 {
		g.SizeBytes += f.SizeBytes
		g.Remaining += f.Remaining
		f.SizeBytes = 0
		f.Remaining = 0
	}
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

// Done reports whether the group has completed.
func (g *Group) Done() bool { return !math.IsNaN(g.Finish) }

// FCT returns the group's completion time in seconds (NaN if running).
func (g *Group) FCT() float64 { return g.Finish - g.Arrive }
