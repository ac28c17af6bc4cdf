package fluid

import (
	"math"

	"numfabric/internal/core"
)

// This file is the cache-shaped storage layer every flow-level driver
// takes its flows from — the event-driven engine (internal/leap), the
// epoch engine and internal/refsim: a pooled, dense-id flow table plus
// a CSR-style arena for the flows' paths. (The epoch engine's groups
// are plain allocations: it creates a handful and releases none.)
// Three properties drive the layout:
//
//   - Pointer stability. Engine state (link indexes, component scratch,
//     allocator inputs) holds *Flow across arbitrary table growth, so
//     storage is slabbed — fixed-size arrays allocated once and never
//     moved — rather than one growable slice.
//   - Dense recycled identity. Ids index per-flow engine state
//     (flowState vectors, heap events, per-link active lists), so they
//     must stay dense under churn: Release pushes an id onto a free
//     list and Acquire pops it, keeping a long run's id space — and
//     every id-indexed side table — bounded by the PEAK live set, not
//     the total admitted.
//   - Zero steady-state allocation. Paths are carved from a shared
//     chunked arena (the CSR: segments of one flat store, not a
//     per-flow make), and released segments recycle through per-length
//     free lists; slab slots and path segments both reuse, so churn in
//     steady state performs no heap allocation at all (pinned by the
//     leap package's AllocsPerOp tests).
//
// The arena stores []int segments (not int32): Flow.Links is the
// public field every allocator and the oracle's max-min workspace
// consume as []int, and handing out zero-copy views into the arena is
// what deletes the per-flow copy without touching that API.
const (
	flowSlabBits = 9 // 512 flows per slab
	flowSlabSize = 1 << flowSlabBits

	// pathChunk is the arena growth quantum, in ints.
	pathChunk = 4096

	// releasedPos marks a released slot's pos field so a double Release
	// is caught instead of corrupting the free list.
	releasedPos = -2
)

// FlowTable is pooled storage for Flow values: stable pointers, dense
// recycled ids, and arena-backed paths. The zero value is ready to use.
// A table is not concurrency-safe; each engine (or each single-threaded
// driver) owns one.
type FlowTable struct {
	slabs []*[flowSlabSize]Flow
	// n is the high-water mark: every id ever issued is < n.
	n    int
	live int
	free []int32

	// arena is the current carve chunk of the path store; full chunks
	// are dropped (their segments stay referenced by live flows or the
	// per-length free lists in segFree).
	arena   []int
	segFree [][][]int
	carved  int
}

// NewFlowTable returns an empty table (equivalent to new(FlowTable)).
func NewFlowTable() *FlowTable { return &FlowTable{} }

// Acquire returns a freshly initialized flow with a recycled id when
// one is free and the next dense id otherwise. links is copied into the
// table's path arena (a recycled same-length segment when available),
// so the caller keeps ownership of its slice and a warm table allocates
// nothing.
func (t *FlowTable) Acquire(links []int, u core.Utility, sizeBytes int64, at float64) *Flow {
	var id int
	if n := len(t.free); n > 0 {
		id = int(t.free[n-1])
		t.free = t.free[:n-1]
	} else {
		id = t.n
		if id>>flowSlabBits == len(t.slabs) {
			t.slabs = append(t.slabs, new([flowSlabSize]Flow))
		}
		t.n++
	}
	t.live++
	f := &t.slabs[id>>flowSlabBits][id&(flowSlabSize-1)]
	*f = Flow{
		ID:        id,
		Links:     t.path(links),
		U:         u,
		SizeBytes: sizeBytes,
		Arrive:    at,
		Remaining: float64(sizeBytes),
		Finish:    math.NaN(),
		pos:       -1,
	}
	return f
}

// path carves (or recycles) a segment of the arena and copies links
// into it. Full-capacity segments are handed out, so a recycled
// segment fits its length class exactly.
func (t *FlowTable) path(links []int) []int {
	n := len(links)
	if n == 0 {
		return nil
	}
	if n < len(t.segFree) {
		if b := t.segFree[n]; len(b) > 0 {
			seg := b[len(b)-1]
			b[len(b)-1] = nil
			t.segFree[n] = b[:len(b)-1]
			copy(seg, links)
			return seg
		}
	}
	if len(t.arena)+n > cap(t.arena) {
		c := pathChunk
		if n > c {
			c = n
		}
		t.arena = make([]int, 0, c)
	}
	off := len(t.arena)
	t.arena = t.arena[:off+n]
	t.carved += n
	seg := t.arena[off : off+n : off+n]
	copy(seg, links)
	return seg
}

// ByID returns the flow with the given id. The pointer is stable for
// the table's lifetime; after a Release of that id it points at the
// slot's next tenant.
func (t *FlowTable) ByID(id int) *Flow {
	return &t.slabs[id>>flowSlabBits][id&(flowSlabSize-1)]
}

// Release recycles f's id and path segment for a future Acquire. The
// caller must be done with the flow entirely: the pointer's slot is
// handed to the next Acquire that draws this id.
func (t *FlowTable) Release(f *Flow) {
	if t.ByID(f.ID) != f {
		panic("fluid: Release of a Flow not owned by this table")
	}
	if f.pos == releasedPos {
		panic("fluid: double Release of a Flow")
	}
	if n := len(f.Links); n > 0 {
		for len(t.segFree) <= n {
			t.segFree = append(t.segFree, nil)
		}
		t.segFree[n] = append(t.segFree[n], f.Links)
	}
	f.Links = nil
	f.U = nil
	f.Group = nil
	f.pos = releasedPos
	t.free = append(t.free, int32(f.ID))
	t.live--
}

// Len returns the number of live (acquired, unreleased) flows.
func (t *FlowTable) Len() int { return t.live }

// Cap returns the id high-water mark: every id ever issued is < Cap,
// and under recycling Cap tracks the peak live set, not the total
// admitted. Id-indexed side tables size to it.
func (t *FlowTable) Cap() int { return t.n }

// ArenaInts returns the total path-arena ints ever carved (recycled
// segments are not re-counted) — the telemetry the arena-reuse tests
// pin.
func (t *FlowTable) ArenaInts() int { return t.carved }
