package fluid

import (
	"testing"

	"numfabric/internal/core"
)

// TestFlowTableRecycling: released ids come back (most-recent first),
// the high-water mark tracks the PEAK live set rather than the total
// admitted, and recycled slots hand out fully re-initialized flows.
func TestFlowTableRecycling(t *testing.T) {
	tbl := NewFlowTable()
	u := core.ProportionalFair()
	var flows []*Flow
	for i := 0; i < 10; i++ {
		flows = append(flows, tbl.Acquire([]int{i}, u, 100, 0))
	}
	for i, f := range flows {
		if f.ID != i {
			t.Fatalf("fresh ids not dense: flow %d got id %d", i, f.ID)
		}
	}
	if tbl.Len() != 10 || tbl.Cap() != 10 {
		t.Fatalf("Len/Cap = %d/%d, want 10/10", tbl.Len(), tbl.Cap())
	}

	tbl.Release(flows[3])
	tbl.Release(flows[7])
	if tbl.Len() != 8 {
		t.Fatalf("Len after two releases = %d, want 8", tbl.Len())
	}
	// LIFO recycling: the most recently released id is drawn first.
	a := tbl.Acquire([]int{42}, u, 200, 1.5)
	if a.ID != 7 {
		t.Errorf("first recycled id = %d, want 7", a.ID)
	}
	b := tbl.Acquire([]int{43}, u, 300, 2.5)
	if b.ID != 3 {
		t.Errorf("second recycled id = %d, want 3", b.ID)
	}
	if tbl.Cap() != 10 {
		t.Errorf("Cap after recycling = %d, want 10 (peak, not total admitted)", tbl.Cap())
	}
	// The recycled slot is a fresh flow, not the old tenant's leftovers.
	if a.Remaining != 200 || a.Arrive != 1.5 || a.Done() || len(a.Links) != 1 || a.Links[0] != 42 {
		t.Errorf("recycled slot not re-initialized: %+v", a)
	}
	// A recycled id resolves to the same slot pointer (pointer stability).
	if tbl.ByID(7) != a || tbl.ByID(3) != b {
		t.Error("ByID does not resolve to the acquired slot")
	}
}

// TestFlowTableDoubleReleasePanics: the releasedPos sentinel turns a
// double Release into a panic instead of free-list corruption.
func TestFlowTableDoubleReleasePanics(t *testing.T) {
	tbl := NewFlowTable()
	f := tbl.Acquire([]int{0}, core.ProportionalFair(), 1, 0)
	tbl.Release(f)
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	tbl.Release(f)
}

// TestFlowTablePathArena: paths are independent full-capacity views of
// the shared arena — correct contents, no aliasing between flows, no
// spare capacity to append over a neighbor — the caller's slice is
// copied (not adopted), and released segments recycle through their
// length class so a warm table carves nothing new.
func TestFlowTablePathArena(t *testing.T) {
	tbl := NewFlowTable()
	u := core.ProportionalFair()

	// Mixed lengths, as under grouped/multipath flows where each member
	// path differs.
	paths := [][]int{{1, 2, 3}, {4}, {5, 6}, {7, 8, 9}, nil}
	var flows []*Flow
	for _, p := range paths {
		flows = append(flows, tbl.Acquire(p, u, 100, 0))
	}
	for i, f := range flows {
		if len(f.Links) != len(paths[i]) {
			t.Fatalf("flow %d: len(Links) = %d, want %d", i, len(f.Links), len(paths[i]))
		}
		for j, l := range paths[i] {
			if f.Links[j] != l {
				t.Fatalf("flow %d link %d = %d, want %d", i, j, f.Links[j], l)
			}
		}
		if cap(f.Links) != len(f.Links) {
			t.Errorf("flow %d: segment cap %d > len %d (append could clobber a neighbor)", i, cap(f.Links), len(f.Links))
		}
	}

	// The table copied the caller's slice: mutating the original must
	// not reach the stored path.
	mine := []int{10, 11}
	f := tbl.Acquire(mine, u, 100, 0)
	mine[0] = 99
	if f.Links[0] != 10 {
		t.Error("Acquire adopted the caller's slice instead of copying")
	}

	// Release + re-acquire at the same length recycles the segment:
	// the carve telemetry must not move.
	carved := tbl.ArenaInts()
	tbl.Release(flows[0]) // len 3
	g := tbl.Acquire([]int{20, 21, 22}, u, 100, 0)
	if tbl.ArenaInts() != carved {
		t.Errorf("ArenaInts grew %d → %d on a recyclable acquire", carved, tbl.ArenaInts())
	}
	if g.Links[0] != 20 || g.Links[1] != 21 || g.Links[2] != 22 {
		t.Errorf("recycled segment contents wrong: %v", g.Links)
	}
	// A length with no free segment still carves.
	tbl.Acquire([]int{1, 2, 3, 4, 5}, u, 100, 0)
	if tbl.ArenaInts() != carved+5 {
		t.Errorf("ArenaInts = %d, want %d after a fresh len-5 carve", tbl.ArenaInts(), carved+5)
	}
}

// TestFlowTableSlabGrowth: crossing slab boundaries issues new slabs
// without moving earlier slots (pointer stability under growth).
func TestFlowTableSlabGrowth(t *testing.T) {
	tbl := NewFlowTable()
	u := core.ProportionalFair()
	first := tbl.Acquire([]int{0}, u, 1, 0)
	for i := 1; i < flowSlabSize+10; i++ {
		tbl.Acquire([]int{0}, u, 1, 0)
	}
	if tbl.ByID(0) != first {
		t.Error("slab growth moved an existing slot")
	}
	if got := tbl.ByID(flowSlabSize + 5).ID; got != flowSlabSize+5 {
		t.Errorf("cross-slab ByID resolves id %d, want %d", got, flowSlabSize+5)
	}
}

// TestAddFlowCopiesLinks: the epoch engine copies the caller's path
// into its flow table, so a driver may reuse or mutate its slice
// afterwards.
func TestAddFlowCopiesLinks(t *testing.T) {
	links := []int{1, 2}
	copied := NewEngine(NewNetwork([]float64{1e9, 1e9, 1e9}), Config{}).AddFlow(links, core.ProportionalFair(), 10, 0)
	if &copied.Links[0] == &links[0] {
		t.Error("AddFlow adopted the slice instead of copying it")
	}
	links[0] = 42
	if copied.Links[0] != 1 {
		t.Error("AddFlow's copy aliases the caller's slice")
	}
}
