package fluid

// ParallelSubsetAllocator is the priming seam of a SubsetAllocator.
// The name dates from when the leap engine solved components on
// several goroutines through per-goroutine Worker views; that layer is
// gone, an allocator is one object used from one goroutine, and the
// names stay only because the repository benchmark (benchmark/) refers
// to them.
//
// What is left is Prime. An engine that re-solves components calls it
// once, before the first AllocateSubset: the allocator sizes its
// link-indexed warm state for the whole network (cold prices, zero
// duals), instead of seeding it from whichever subset happens to solve
// first. Every committed FCT fingerprint starts from that state.
type ParallelSubsetAllocator interface {
	SubsetAllocator
	// Prime sizes the allocator's link-indexed warm state for net.
	Prime(net *Network)
	// Worker returns the allocator itself. Nothing in this repository
	// outside benchmark/ calls it.
	Worker() SubsetAllocator
}

// Prime is a no-op: WaterFill keeps no state across calls.
func (w *WaterFill) Prime(net *Network) {}

// Worker returns w.
func (w *WaterFill) Worker() SubsetAllocator { return w }

// Prime sizes the per-link price vector: cold prices, which the
// dynamics warm from the first event on.
func (a *XWI) Prime(net *Network) {
	if len(a.price) != net.Links() {
		a.price = initPrices(net, nil)
	}
}

// Worker returns a.
func (a *XWI) Worker() SubsetAllocator { return a }

// Prime sizes the per-link price vector at zero: DGD's steps scale with
// the line-rate marginal (≈ 1e-10), so XWI's cold price of 1 would stay.
func (a *DGD) Prime(net *Network) {
	if len(a.price) != net.Links() {
		a.price = make([]float64, net.Links())
	}
}

// Worker returns a.
func (a *DGD) Worker() SubsetAllocator { return a }

// Prime sizes the warm-start dual vector: cold zeros, and each subset
// solve scatters back the duals of the links it touched.
func (o *Oracle) Prime(net *Network) {
	if len(o.prices) != net.Links() {
		o.prices = make([]float64, net.Links())
	}
}

// Worker returns o.
func (o *Oracle) Worker() SubsetAllocator { return o }
