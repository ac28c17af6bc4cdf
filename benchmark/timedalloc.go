package main

import (
	"time"

	"numfabric/internal/fluid"
)

// allocBucketNames are the component-size classes allocator calls are
// aggregated into (flows per call: ≤2, ≤8, ≤64, >64).
var allocBucketNames = [4]string{"le2", "le8", "le64", "gt64"}

// allocTotals aggregates allocator calls per size bucket; nothing is
// stored per call.
type allocTotals struct {
	calls, flows, nanos [4]int64
	maxFlows            int
}

func (t *allocTotals) add(nflows int, d time.Duration) {
	b := 3
	switch {
	case nflows <= 2:
		b = 0
	case nflows <= 8:
		b = 1
	case nflows <= 64:
		b = 2
	}
	t.calls[b]++
	t.flows[b] += int64(nflows)
	t.nanos[b] += int64(d)
	if nflows > t.maxFlows {
		t.maxFlows = nflows
	}
}

func (t *allocTotals) sum() (calls, flows, nanos int64) {
	for b := range t.calls {
		calls += t.calls[b]
		flows += t.flows[b]
		nanos += t.nanos[b]
	}
	return
}

// timedSubset times a fluid allocator from outside: every solve is
// bracketed by two clock reads and charged to its size bucket. The
// totals are plain integers: the benchmark never sets
// leap.Config.Workers, so all solves run on the engine's own goroutine.
type timedSubset struct {
	inner  fluid.SubsetAllocator
	totals *allocTotals
}

func (a timedSubset) Allocate(net *fluid.Network, flows []*fluid.Flow, rates []float64) {
	start := time.Now()
	a.inner.Allocate(net, flows, rates)
	a.totals.add(len(flows), time.Since(start))
}

func (a timedSubset) AllocateSubset(net *fluid.Network, flows []*fluid.Flow, rates []float64) {
	start := time.Now()
	a.inner.AllocateSubset(net, flows, rates)
	a.totals.add(len(flows), time.Since(start))
}

func (a timedSubset) Reset() { a.inner.Reset() }

// timedAlloc is the decorator handed to an engine. On top of the timed
// solves it forwards every optional allocator interface the engines
// probe for (Prime/Worker, Stationary, SolveIters), so an engine takes
// exactly the code path it takes with the bare allocator and a traced
// run's FCT bits equal the untraced run's.
type timedAlloc struct {
	timedSubset
	parallel fluid.ParallelSubsetAllocator
}

func newTimedAlloc(inner fluid.ParallelSubsetAllocator) *timedAlloc {
	return &timedAlloc{timedSubset{inner, &allocTotals{}}, inner}
}

func (a *timedAlloc) Prime(net *fluid.Network) { a.parallel.Prime(net) }

// Worker returns the decorated view of one allocator Worker; it shares
// its parent's totals.
func (a *timedAlloc) Worker() fluid.SubsetAllocator {
	return timedSubset{a.parallel.Worker(), a.totals}
}

// Stationary reports the inner allocator's answer, false when it does
// not declare one — which is what the epoch engine assumes anyway.
func (a *timedAlloc) Stationary() bool {
	s, ok := a.inner.(fluid.StationaryAllocator)
	return ok && s.Stationary()
}

// SolveIters reports the inner allocator's iteration total, 0 when it
// keeps none.
func (a *timedAlloc) SolveIters() int64 {
	if c, ok := a.inner.(fluid.IterCounter); ok {
		return c.SolveIters()
	}
	return 0
}
