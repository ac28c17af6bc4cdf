package fluid

import (
	"testing"

	"numfabric/internal/core"
)

// parallelAllocators enumerates the built-in ParallelSubsetAllocator
// implementations (fresh instances per call).
func parallelAllocators() map[string]func() ParallelSubsetAllocator {
	return map[string]func() ParallelSubsetAllocator{
		"waterfill": func() ParallelSubsetAllocator { return NewWaterFill() },
		"xwi":       func() ParallelSubsetAllocator { return &XWI{IterPerEpoch: 16, Tol: 1e-4} },
		"dgd":       func() ParallelSubsetAllocator { return &DGD{IterPerEpoch: 200, Tol: 1e-4} },
		"oracle":    func() ParallelSubsetAllocator { return NewOracle() },
	}
}

// TestParallelWorkersMatchSerial: for every built-in allocator, two
// link-disjoint components solved through one primed allocator produce
// bitwise the same rates whichever is solved first, and whether the
// caller holds the allocator or its Worker() — a component's solve
// reads and writes only the warm state of the links it crosses.
func TestParallelWorkersMatchSerial(t *testing.T) {
	for name, mk := range parallelAllocators() {
		t.Run(name, func(t *testing.T) {
			net, a, b := subsetScenario()

			serial := mk()
			serial.Prime(net)
			sa := make([]float64, len(a))
			sb := make([]float64, len(b))
			serial.AllocateSubset(net, a, sa)
			serial.AllocateSubset(net, b, sb)

			other := mk()
			other.Prime(net)
			w := other.Worker()
			pa := make([]float64, len(a))
			pb := make([]float64, len(b))
			w.AllocateSubset(net, b, pb)
			w.AllocateSubset(net, a, pa)

			for i := range sa {
				if pa[i] != sa[i] {
					t.Errorf("component A flow %d: solved second %v != solved first %v", i, pa[i], sa[i])
				}
			}
			for i := range sb {
				if pb[i] != sb[i] {
					t.Errorf("component B flow %d: solved first %v != solved second %v", i, pb[i], sb[i])
				}
			}
		})
	}
}

// TestParallelWorkersGroups: alternating solves of two group-bearing
// subsets through one allocator exercise the per-call group numbering —
// a number left from the other subset would pool the wrong members.
func TestParallelWorkersGroups(t *testing.T) {
	net := NewNetwork([]float64{10e9, 10e9, 10e9, 10e9})
	u := core.ProportionalFair()
	var flows FlowTable
	mkGroup := func(links [2]int) (*Group, []*Flow) {
		g := &Group{U: u}
		f1 := flows.Acquire([]int{links[0]}, u, 0, 0)
		f2 := flows.Acquire([]int{links[1]}, u, 0, 0)
		g.AddMember(f1)
		g.AddMember(f2)
		return g, []*Flow{f1, f2}
	}
	_, a := mkGroup([2]int{0, 1})
	_, b := mkGroup([2]int{2, 3})

	parent := &XWI{IterPerEpoch: 48, Tol: 1e-3}
	parent.Prime(net)
	w := parent.Worker()
	ra := make([]float64, 2)
	rb := make([]float64, 2)
	for round := 0; round < 100; round++ {
		w.AllocateSubset(net, a, ra)
		w.AllocateSubset(net, b, rb)
		if ra[0]+ra[1] < 19e9 || rb[0]+rb[1] < 19e9 {
			t.Fatalf("round %d: a group lost its pooled rate: %v %v (group numbering stale?)", round, ra, rb)
		}
	}
}

// TestEpochEngineStats: the epoch engine's telemetry counts epochs,
// allocator solves, and the stationary skip. A WaterFill run with one
// long flow re-allocates only when the active set changes; every other
// active epoch is a skipped (cached) allocation.
func TestEpochEngineStats(t *testing.T) {
	net := NewNetwork([]float64{10e9})
	e := NewEngine(net, Config{Epoch: 1e-4, Allocator: NewWaterFill()})
	e.AddFlow([]int{0}, core.ProportionalFair(), 10<<20, 0) // ~8 ms at 10G
	e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 2e-3)
	e.Run(1)
	s := e.Stats()
	if s.Epochs == 0 || s.Allocs == 0 {
		t.Fatalf("stats not populated: %+v", s)
	}
	// Three active-set changes (two arrivals, two departures — the
	// last drains the engine, so at most one epoch sees it).
	if s.Allocs > 4 {
		t.Errorf("stationary allocator solved %d times, want ≤ 4 (arrivals + departures)", s.Allocs)
	}
	if s.SkippedAllocs != s.Epochs-s.Allocs {
		t.Errorf("skips %d != epochs %d − allocs %d", s.SkippedAllocs, s.Epochs, s.Allocs)
	}
	if s.MaxSolve != 2 {
		t.Errorf("MaxSolve = %d, want 2", s.MaxSolve)
	}
	if s.SolvedFlows <= s.Allocs/2 {
		t.Errorf("SolvedFlows = %d implausible for %d allocs", s.SolvedFlows, s.Allocs)
	}
	// A non-stationary allocator never skips.
	xe := NewEngine(NewNetwork([]float64{10e9}), Config{Epoch: 1e-4, Allocator: NewXWI()})
	xe.AddFlow([]int{0}, core.ProportionalFair(), 10<<20, 0)
	xe.Run(1)
	xs := xe.Stats()
	if xs.SkippedAllocs != 0 || xs.Allocs != xs.Epochs {
		t.Errorf("XWI epoch engine skipped allocations: %+v", xs)
	}
}
