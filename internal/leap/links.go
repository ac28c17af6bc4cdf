package leap

import (
	"slices"

	"numfabric/internal/fluid"
)

// linkIndex is the link-sharing graph. flows[l] lists the active flows
// crossing link l — by dense id, four bytes per entry — maintained
// exactly: arrivals append, departures swap-remove. The isolation
// fast-path check is a length test and the component flood traverses
// it as the adjacency (resolving ids through the flow table only for
// flows not yet collected). mark stamps the links a flood visited with
// the flood's round, so marks never need clearing.
type linkIndex struct {
	flows [][]int32
	mark  []int
	round int
}

// link adds an admitted f to its links' lists and reports whether it
// is isolated: none of them carried an active flow.
func (x *linkIndex) link(f *fluid.Flow) (isolated bool) {
	isolated = true
	for _, l := range f.Links {
		isolated = isolated && len(x.flows[l]) == 0
	}
	for _, l := range f.Links {
		x.flows[l] = append(x.flows[l], int32(f.ID))
	}
	return isolated
}

// unlink removes a departing f from its links' lists and seeds b with
// the neighbors it leaves behind — the flows whose component just
// gained capacity. It reports whether there were any; false is the
// solo departure, whose capacity was visible to nobody, so the
// remaining schedule stands.
func (x *linkIndex) unlink(f *fluid.Flow, b *componentBatch) (coupled bool) {
	id := int32(f.ID)
	for _, l := range f.Links {
		lf := x.flows[l]
		last := len(lf) - 1
		lf[slices.Index(lf, id)] = lf[last]
		x.flows[l] = lf[:last]
		coupled = coupled || last > 0
		b.seedIDs(lf[:last])
	}
	return coupled
}

// floodComponent BFSes the connected component of a live, uncollected
// seed over the link-sharing graph, appending its flows (sorted into
// admission order) and its range to b.comp/b.comps.
func (x *linkIndex) floodComponent(b *componentBatch, seed *fluid.Flow) {
	f0, fs := len(b.comp), *b.fs
	x.round++
	r := x.round
	b.enqueueID(fs, int32(seed.ID))
	for i := f0; i < len(b.comp); i++ {
		for _, l := range b.comp[i].Links {
			if x.mark[l] == r {
				continue
			}
			x.mark[l] = r
			for _, n := range x.flows[l] {
				b.enqueueID(fs, n)
			}
		}
	}
	// Insertion sort into admission order: components are small, and
	// this dodges sort.Slice's per-call overhead on the hot path.
	comp := b.comp[f0:]
	for i := 1; i < len(comp); i++ {
		fl := comp[i]
		k := fs[fl.ID].seq
		j := i - 1
		for j >= 0 && fs[comp[j].ID].seq > k {
			comp[j+1] = comp[j]
			j--
		}
		comp[j+1] = fl
	}
	b.comps = append(b.comps, compRange{f0, len(b.comp)})
}

// collectComponents floods out from b's seeds over the link-sharing
// graph and partitions the touched flows into their disjoint connected
// components: one BFS per seed not absorbed by an earlier seed's flood,
// so overlapping seeds merge into one component and distinct
// components never share a link. Components come out in seed order,
// each one's flows in stable admission order; seeds that already
// completed contribute nothing.
func (x *linkIndex) collectComponents(b *componentBatch) []compRange {
	b.comps = b.comps[:0]
	b.comp = b.comp[:0]
	fs := *b.fs
	for _, f := range b.touched {
		fs[f.ID].bits &^= seededBit
	}
	for _, f := range b.touched {
		if f.Done() || fs[f.ID].bits&inCompBit != 0 {
			continue
		}
		x.floodComponent(b, f)
	}
	b.touched = b.touched[:0]
	for _, f := range b.comp {
		fs[f.ID].bits &^= inCompBit
	}
	return b.comps
}
