package leap

import "numfabric/internal/fluid"

// compRange is one disjoint connected component within a batch's
// flood, as an index range into componentBatch.comp.
type compRange struct{ f0, f1 int }

// componentBatch is the per-batch component scratch. touched seeds the
// next flood: coupled arrivals, the surviving neighbors of departures,
// the flows crossing a faulted link. The flood fills comps with disjoint
// ranges over comp, and each component solves into its range of rates.
// Like the schedule, the batch reaches the flow state words through fs:
// it owns their seededBit and inCompBit.
type componentBatch struct {
	touched []*fluid.Flow
	comp    []*fluid.Flow
	comps   []compRange
	rates   []float64
	fs      *[]flowState
	tbl     *fluid.FlowTable
}

// seed queues f's component for the next reallocation.
func (b *componentBatch) seed(f *fluid.Flow) {
	st := &(*b.fs)[f.ID]
	if st.bits&seededBit != 0 {
		return
	}
	st.bits |= seededBit
	b.touched = append(b.touched, f)
}

// seedIDs seeds every flow in ids.
func (b *componentBatch) seedIDs(ids []int32) {
	for _, id := range ids {
		b.seed(b.tbl.ByID(int(id)))
	}
}

// enqueueID adds live flow id to the component being collected, once;
// fs is *b.fs, hoisted by the flood. Already-collected neighbors, the
// common case on dense links, never touch the table.
func (b *componentBatch) enqueueID(fs []flowState, id int32) {
	st := &fs[id]
	if st.bits&inCompBit != 0 {
		return
	}
	st.bits |= inCompBit
	b.comp = append(b.comp, b.tbl.ByID(int(id)))
}
