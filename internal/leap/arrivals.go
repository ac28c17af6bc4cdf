package leap

import (
	"fmt"
	"math"
	"sort"

	"numfabric/internal/fluid"
)

// arrivalQueue holds the added flows in arrival order: pending[next:]
// wait, pending[:next] were admitted. An out-of-order add marks the
// queue unsorted, and the next admission stable-sorts the waiting flows,
// so equal arrival times admit in add order. nadmit counts admissions:
// each flow's sequence number, the order components are solved in.
type arrivalQueue struct {
	pending  []*fluid.Flow
	next     int
	unsorted bool
	nadmit   int32
}

// add queues f for admission at f.Arrive.
func (q *arrivalQueue) add(f *fluid.Flow) {
	if n := len(q.pending); n > 0 && f.Arrive < q.pending[n-1].Arrive {
		q.unsorted = true
	}
	q.pending = append(grow(q.pending), f)
}

// waiting returns the flows not yet admitted.
func (q *arrivalQueue) waiting() []*fluid.Flow { return q.pending[q.next:] }

// admit dequeues the earliest waiting flow if it arrives by now,
// returning it with its admission sequence number, or nil.
func (q *arrivalQueue) admit(now float64) (*fluid.Flow, int32) {
	if q.unsorted {
		rest := q.waiting()
		sort.SliceStable(rest, func(i, j int) bool { return rest[i].Arrive < rest[j].Arrive })
		q.unsorted = false
	}
	if q.next == len(q.pending) || q.pending[q.next].Arrive > now {
		return nil, 0
	}
	if q.nadmit == math.MaxInt32 {
		// seq orders components for the allocator; past the limit it
		// would go negative and reorder them silently.
		panic(fmt.Sprintf("leap: %d flows admitted: the int32 admission sequence is exhausted", q.nadmit))
	}
	f := q.pending[q.next]
	q.next++
	q.nadmit++
	return f, q.nadmit - 1
}

// dropAdmitted compacts the admitted prefix out of pending, so the
// queue neither grows with the total admitted nor pins recycled flows.
func (q *arrivalQueue) dropAdmitted() {
	n := copy(q.pending, q.pending[q.next:])
	clear(q.pending[n:])
	q.pending = q.pending[:n]
	q.next = 0
}
