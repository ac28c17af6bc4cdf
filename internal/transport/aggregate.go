package transport

// Aggregate ties together the NUMFabric subflows of one multipath flow
// for resource pooling (§6.3). The aggregate's utility is a function
// of the subflows' total rate (Table 1, row 4); each subflow's Swift
// weight is the aggregate weight implied by its own path price scaled
// by the subflow's share of the aggregate throughput — the paper's
// "intuitive heuristic". The fluid engine's counterpart is
// fluid.Group, which runs the same heuristic at flow granularity.
type Aggregate struct {
	senders []*NUMFabricSender
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate { return &Aggregate{} }

// Add enrolls a subflow sender in the aggregate.
func (a *Aggregate) Add(s *NUMFabricSender) {
	a.senders = append(a.senders, s)
	s.agg = a
}

// Senders returns the enrolled subflow senders.
func (a *Aggregate) Senders() []*NUMFabricSender { return a.senders }

// totalRate sums the subflows' achieved-throughput estimates.
func (a *Aggregate) totalRate() float64 {
	total := 0.0
	for _, s := range a.senders {
		total += s.achieved.Value()
	}
	return total
}

// totalResRate sums the subflows' heavily smoothed rate estimates
// (used for the residual computation; see NUMFabricSender.resRate).
func (a *Aggregate) totalResRate() float64 {
	total := 0.0
	for _, s := range a.senders {
		total += s.resRate.Value()
	}
	return total
}

// shareFloor keeps an idle path's weight above zero so it can probe
// for newly available capacity.
const shareFloor = 0.05

// share returns s's fraction of the aggregate throughput, floored so
// an idle path keeps enough weight to probe for capacity.
func (a *Aggregate) share(s *NUMFabricSender) float64 {
	sh := a.rawShare(s)
	if sh < shareFloor {
		sh = shareFloor
	}
	return sh
}

// rawShare returns s's unfloored fraction of the aggregate throughput.
func (a *Aggregate) rawShare(s *NUMFabricSender) float64 {
	total := a.totalRate()
	if total <= 0 {
		return 1 / float64(len(a.senders))
	}
	return s.achieved.Value() / total
}
