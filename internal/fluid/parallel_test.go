package fluid

import (
	"sync"
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
// link-disjoint components solved concurrently on two Worker views
// produce bitwise the rates of solving them sequentially on one view —
// the commutativity contract the leap engine's multi-core mode rests
// on (workers share warm per-link state but their subsets touch
// disjoint links).
func TestParallelWorkersMatchSerial(t *testing.T) {
	for name, mk := range parallelAllocators() {
		t.Run(name, func(t *testing.T) {
			net, a, b := subsetScenario()

			serial := mk()
			serial.Prime(net)
			sw := serial.Worker()
			sa := make([]float64, len(a))
			sb := make([]float64, len(b))
			sw.AllocateSubset(net, a, sa)
			sw.AllocateSubset(net, b, sb)

			par := mk()
			par.Prime(net)
			wa, wb := par.Worker(), par.Worker()
			pa := make([]float64, len(a))
			pb := make([]float64, len(b))
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); wa.AllocateSubset(net, a, pa) }()
			go func() { defer wg.Done(); wb.AllocateSubset(net, b, pb) }()
			wg.Wait()

			for i := range sa {
				if pa[i] != sa[i] {
					t.Errorf("component A flow %d: parallel %v != serial %v", i, pa[i], sa[i])
				}
			}
			for i := range sb {
				if pb[i] != sb[i] {
					t.Errorf("component B flow %d: parallel %v != serial %v", i, pb[i], sb[i])
				}
			}
		})
	}
}

// TestParallelWorkersGroups: concurrent group-bearing subsets exercise
// the shared group-scan stamp source — two workers scanning different
// groups must never collide (a collision would silently drop a group
// from its allocator's view).
func TestParallelWorkersGroups(t *testing.T) {
	net := NewNetwork([]float64{10e9, 10e9, 10e9, 10e9})
	u := core.ProportionalFair()
	mkGroup := func(id int, links [2]int) (*Group, []*Flow) {
		g := NewGroup(id, u, 1<<20, 0)
		f1 := NewFlow(2*id, []int{links[0]}, u, 0, 0)
		f2 := NewFlow(2*id+1, []int{links[1]}, u, 0, 0)
		g.AddMember(f1)
		g.AddMember(f2)
		return g, []*Flow{f1, f2}
	}
	_, a := mkGroup(0, [2]int{0, 1})
	_, b := mkGroup(1, [2]int{2, 3})

	parent := NewWaterFill()
	parent.Prime(net)
	wa, wb := parent.Worker(), parent.Worker()
	ra := make([]float64, 2)
	rb := make([]float64, 2)
	// Many rounds so the two workers' scan counters repeatedly pass
	// each other's past values.
	for round := 0; round < 100; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); wa.AllocateSubset(net, a, ra) }()
		go func() { defer wg.Done(); wb.AllocateSubset(net, b, rb) }()
		wg.Wait()
		if ra[0]+ra[1] < 19e9 || rb[0]+rb[1] < 19e9 {
			t.Fatalf("round %d: a group lost its pooled rate: %v %v (group scan dropped?)", round, ra, rb)
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
