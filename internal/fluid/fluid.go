// Package fluid is a flow-granularity ("fluid model") fast-path
// simulation engine. Where internal/netsim moves individual packets
// through queues — faithful, but limited to a few hundred flows before
// a run takes minutes — this package abstracts a flow to a single rate
// variable and advances the whole network in fixed epochs:
//
//	admit arrivals → allocate rates (pluggable Allocator) → drain flows
//
// The allocation step reuses the same machinery the paper's Oracle is
// built from (internal/oracle): exact weighted max-min water-filling,
// the xWI weight-update dynamics that converge to the NUM optimum, and
// DGD dual gradient dynamics. Running one allocator iteration per
// epoch makes the convergence *dynamics* visible at flow scale — an
// xWI fluid run approaches the optimum over simulated time just as the
// packet transport does, only ~10³–10⁵× faster in wall-clock — while
// steady states still agree with the oracle solvers to well under a
// percent.
//
// Flows may be pooled into multipath aggregates (Group): N member
// subflows, each on its own path, governed by one utility of the
// group's total rate — the paper's resource-pooling objective (Table 1
// row 4, §6.3) at fluid granularity. The XWI allocator splits a
// group's demand across its members; no other allocator plays groups
// (see Group).
//
// The package also provides a k-ary fat-tree topology generator
// (topologies far beyond the packet path's leaf-spine reach) with full
// ECMP path-set enumeration for instantiating groups over real
// multipath topologies, and a parallel sweep runner that fans
// independent seeds/configs across goroutines with deterministic
// per-shard RNG streams.
package fluid

import (
	"math"

	"numfabric/internal/core"
)

// Network is the fluid view of a network: nothing but a vector of
// directed-link capacities in bits/second. Flows reference links by
// index into this vector. Construct one with NewNetwork and change a
// capacity with SetCapacity: the network keeps the largest capacity
// current for the allocators, which scale their weight window, step
// size and tolerance by it on every solve.
type Network struct {
	Capacity []float64

	maxCap float64
}

// NewNetwork returns a network with the given per-link capacities.
func NewNetwork(capacity []float64) *Network {
	n := &Network{Capacity: append([]float64(nil), capacity...)}
	n.maxCap = maxCapacity(n.Capacity)
	return n
}

// Links returns the number of directed links.
func (n *Network) Links() int { return len(n.Capacity) }

// SetCapacity changes link l's capacity (fault injection zeroes and
// restores it) and brings the maintained maximum up to date before
// returning, so solves only ever read it. It must not run concurrently
// with a solve on this network.
func (n *Network) SetCapacity(l int, c float64) {
	n.Capacity[l] = c
	n.maxCap = maxCapacity(n.Capacity)
}

// MaxCapacity returns the largest link capacity (0 for an empty or
// all-dead network).
func (n *Network) MaxCapacity() float64 { return n.maxCap }

func maxCapacity(capacity []float64) float64 {
	m := 0.0
	for _, c := range capacity {
		m = math.Max(m, c)
	}
	return m
}

// Flow is one fluid flow: a path, a utility, and a rate.
type Flow struct {
	// ID is the engine-assigned index, dense in admission order.
	ID int
	// Links are the directed links the flow traverses.
	Links []int
	// U is the flow's NUM utility. Required: both engines reject nil,
	// though WaterFill weighs every flow 1 and never reads it.
	U core.Utility
	// SizeBytes is the payload; 0 means unbounded (runs until stopped).
	SizeBytes int64
	// Arrive is the arrival time in seconds.
	Arrive float64

	// Remaining is the payload left to drain, in bytes.
	Remaining float64
	// Rate is the most recent allocation in bits/second.
	Rate float64
	// Finish is the completion time in seconds (NaN while running).
	Finish float64

	// Group is the aggregate this flow belongs to as a member subflow,
	// nil for an ordinary single-path flow. A member is unbounded and
	// its U aliases the group's utility of the TOTAL rate.
	Group *Group

	// share is the flow's smoothed fraction of its group's throughput,
	// the state behind the §6.3 multipath weight heuristic; XWI updates
	// it across epochs.
	share float64

	// pos is the flow's index in the engine's active slice (-1 when
	// not active), for O(1) removal.
	pos int
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return !math.IsNaN(f.Finish) }

// FCT returns the flow completion time in seconds (NaN if running).
func (f *Flow) FCT() float64 { return f.Finish - f.Arrive }
