// Package refsim is the repository's one naive flow-level simulator:
// the paper's §6.1 yardstick — an Oracle that "assigns all flows their
// optimal rates instantaneously" — written the obvious way, so the
// fast engines have an independent referee. Every iteration re-solves
// the WHOLE active set with the allocator's Allocate, finds the
// earliest departure by linear scan, drains every payload eagerly, and
// applies exactly one event: a departure, a link fault or an arrival.
// No heap, no link index, no components, no lazy drain, no batching,
// and nothing imported from internal/leap or internal/harness.
//
// It is a referee only, imported by tests alone:
// internal/leap's tests and fuzz target hold the event-driven engine to
// it at 1e-9 relative, and harness's TestIdealLeapMatchesRefsim holds
// the Figure 5 ideals — played on the leap engine with the exact Oracle
// allocator — to its whole-set re-solves at 1e-3. The model is the leap
// engine's: single-path flows; a failed link has capacity zero and
// failures nest; a finite flow at rate zero waits; at a shared instant
// departures come first, then failures, then recoveries (each by link
// id), then arrivals; an event scheduled in the past applies now.
package refsim

import (
	"math"
	"slices"
	"sort"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
)

// fault is one scheduled failure or recovery.
type fault struct {
	at   float64
	link int
	fail bool
}

// Sim is one simulation. LinksDown and CapacityLostBitSec are the
// degradation accounting the leap engine's Stats also keep: links
// currently failed, and Σ capacity × downtime over recovered links.
type Sim struct {
	LinksDown          int
	CapacityLostBitSec float64

	net      *fluid.Network
	alloc    fluid.Allocator
	now      float64
	arrivals []*fluid.Flow
	faults   []fault
	active   []*fluid.Flow // admission order
	finished []*fluid.Flow // completion order
	flows    fluid.FlowTable
	baseCap  []float64 // what recovery restores
	depth    []int     // nested failures per link
	downT    []float64 // when each dead link went down
	rates    []float64 // the allocation buffer, one entry per active flow
}

// New returns a simulator over net (whose capacities link faults
// mutate) solving with alloc.
func New(net *fluid.Network, alloc fluid.Allocator) *Sim {
	n := net.Links()
	return &Sim{net: net, alloc: alloc, baseCap: append([]float64(nil), net.Capacity...),
		depth: make([]int, n), downT: make([]float64, n)}
}

// AddFlow schedules a flow over links arriving at time at with utility
// u and payload sizeBytes (0 = unbounded); read its Finish after Run.
func (s *Sim) AddFlow(links []int, u core.Utility, sizeBytes int64, at float64) *fluid.Flow {
	f := s.flows.Acquire(links, u, sizeBytes, at)
	s.arrivals = append(s.arrivals, f)
	return f
}

// Finished returns every completed flow, in completion order.
func (s *Sim) Finished() []*fluid.Flow { return s.finished }

// FailLink and RecoverLink schedule link to fail or recover at time at.
func (s *Sim) FailLink(link int, at float64)    { s.faults = append(s.faults, fault{at, link, true}) }
func (s *Sim) RecoverLink(link int, at float64) { s.faults = append(s.faults, fault{at, link, false}) }

// drainTo advances time to t, draining every finite payload at the
// current rates.
func (s *Sim) drainTo(t float64) {
	for _, f := range s.active {
		if f.SizeBytes == 0 {
			continue
		}
		f.Remaining -= f.Rate / 8 * (t - s.now)
		if f.Remaining < 0 {
			f.Remaining = 0
		}
	}
	s.now = t
}

// Run advances one event at a time until no event has a finite time or
// the next one lies beyond until, in which case payloads drain to
// until and time stops there.
func (s *Sim) Run(until float64) {
	sort.SliceStable(s.arrivals, func(i, j int) bool { return s.arrivals[i].Arrive < s.arrivals[j].Arrive })
	sort.SliceStable(s.faults, func(i, j int) bool {
		a, b := s.faults[i], s.faults[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.fail != b.fail {
			return a.fail
		}
		return a.link < b.link
	})
	for {
		if len(s.active) > 0 {
			s.rates = slices.Grow(s.rates[:0], len(s.active))[:len(s.active)]
			s.alloc.Allocate(s.net, s.active, s.rates)
			for i, f := range s.active {
				f.Rate = s.rates[i]
			}
		}
		depT, dep := math.Inf(1), -1
		for i, f := range s.active {
			if f.SizeBytes == 0 || f.Rate <= 0 {
				continue
			}
			if t := s.now + f.Remaining*8/f.Rate; t < depT {
				depT, dep = t, i
			}
		}
		arrT, fltT := math.Inf(1), math.Inf(1)
		if len(s.arrivals) > 0 {
			arrT = math.Max(s.arrivals[0].Arrive, s.now)
		}
		if len(s.faults) > 0 {
			fltT = math.Max(s.faults[0].at, s.now)
		}
		t := math.Min(depT, math.Min(fltT, arrT))
		if math.IsInf(t, 1) {
			return
		}
		if t > until {
			s.drainTo(math.Max(until, s.now))
			return
		}
		// A departure within float slack of the instant goes first: it
		// retires under the rates it drained at.
		if depT <= t+1e-12*(1+math.Abs(t)) {
			t = depT
		}
		s.drainTo(t)
		switch {
		case t == depT:
			s.depart(dep)
		case fltT <= arrT:
			s.applyFault(s.faults[0])
			s.faults = s.faults[1:]
		default:
			s.active = append(s.active, s.arrivals[0])
			s.arrivals = s.arrivals[1:]
		}
	}
}

// depart finishes the active flow at index i now.
func (s *Sim) depart(i int) {
	f := s.active[i]
	f.Finish, f.Remaining = s.now, 0
	s.finished = append(s.finished, f)
	s.active = append(s.active[:i], s.active[i+1:]...)
}

func (s *Sim) applyFault(f fault) {
	l := f.link
	if f.fail {
		if s.depth[l]++; s.depth[l] == 1 {
			s.net.SetCapacity(l, 0)
			s.downT[l] = s.now
			s.LinksDown++
		}
	} else if s.depth[l] > 0 {
		if s.depth[l]--; s.depth[l] == 0 {
			s.net.SetCapacity(l, s.baseCap[l])
			s.CapacityLostBitSec += s.baseCap[l] * (s.now - s.downT[l])
			s.LinksDown--
		}
	}
}
