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
// It is a referee only, imported by tests and the repository benchmark:
// internal/leap's tests and fuzz target hold the event-driven engine to
// it at 1e-9 relative, and harness's TestIdealLeapMatchesRefsim holds
// the Figure 5 ideals — played on the leap engine with the exact Oracle
// allocator — to its whole-set re-solves at 1e-3. The model is the leap
// engine's: a failed link has capacity zero and failures nest; a
// finite flow at rate zero waits; at a shared instant departures come
// first, then failures, then recoveries (each by link id), then
// arrivals; an event scheduled in the past applies now.
package refsim

import (
	"math"
	"slices"
	"sort"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
)

// arrival is one admission event: a plain flow, or a group's members
// arriving as a unit. fault is one scheduled failure or recovery.
type (
	arrival struct {
		at    float64
		flows []*fluid.Flow
	}
	fault struct {
		at   float64
		link int
		fail bool
	}
)

// Sim is one simulation. LinksDown and CapacityLostBitSec are the
// degradation accounting the leap engine's Stats also keep: links
// currently failed, and Σ capacity × downtime over recovered links.
type Sim struct {
	LinksDown          int
	CapacityLostBitSec float64

	net      *fluid.Network
	alloc    fluid.Allocator
	now      float64
	arrivals []arrival
	faults   []fault
	active   []*fluid.Flow // admission order
	finished []*fluid.Flow // completion order
	flows    fluid.FlowTable
	groups   fluid.GroupTable
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
	s.arrivals = append(s.arrivals, arrival{at, []*fluid.Flow{f}})
	return f
}

// AddGroup schedules a multipath aggregate: one member subflow per
// path, one utility of the total rate, one shared payload.
func (s *Sim) AddGroup(paths [][]int, u core.Utility, sizeBytes int64, at float64) *fluid.Group {
	g := s.groups.Acquire(u, sizeBytes, at)
	for _, links := range paths {
		g.AddMember(s.flows.Acquire(links, u, 0, at))
	}
	s.arrivals = append(s.arrivals, arrival{at, g.Members})
	return g
}

// Finished returns every completed flow (group members included), in
// completion order.
func (s *Sim) Finished() []*fluid.Flow { return s.finished }

// FailLink and RecoverLink schedule link to fail or recover at time at.
func (s *Sim) FailLink(link int, at float64)    { s.faults = append(s.faults, fault{at, link, true}) }
func (s *Sim) RecoverLink(link int, at float64) { s.faults = append(s.faults, fault{at, link, false}) }

// payload returns what drains when f's rate flows — the group's shared
// payload and total rate for a member — and whether it is finite.
func payload(f *fluid.Flow) (remaining *float64, rate float64, finite bool) {
	if g := f.Group; g != nil {
		return &g.Remaining, g.Rate(), g.SizeBytes > 0
	}
	return &f.Remaining, f.Rate, f.SizeBytes > 0
}

// drainTo advances time to t, draining every finite payload at the
// current rates (a group once, at its first member).
func (s *Sim) drainTo(t float64) {
	for _, f := range s.active {
		rem, rate, finite := payload(f)
		if !finite || (f.Group != nil && f.Group.Members[0] != f) {
			continue
		}
		*rem -= rate / 8 * (t - s.now)
		if *rem < 0 {
			*rem = 0
		}
	}
	s.now = t
}

// Run advances one event at a time until no event has a finite time or
// the next one lies beyond until, in which case payloads drain to
// until and time stops there.
func (s *Sim) Run(until float64) {
	sort.SliceStable(s.arrivals, func(i, j int) bool { return s.arrivals[i].at < s.arrivals[j].at })
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
			rem, rate, finite := payload(f)
			if !finite || rate <= 0 {
				continue
			}
			if t := s.now + *rem*8/rate; t < depT {
				depT, dep = t, i
			}
		}
		arrT, fltT := math.Inf(1), math.Inf(1)
		if len(s.arrivals) > 0 {
			arrT = math.Max(s.arrivals[0].at, s.now)
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
			s.depart(s.active[dep])
		case fltT <= arrT:
			s.applyFault(s.faults[0])
			s.faults = s.faults[1:]
		default:
			s.active = append(s.active, s.arrivals[0].flows...)
			s.arrivals = s.arrivals[1:]
		}
	}
}

// depart finishes f — with its whole group, for a member — now.
func (s *Sim) depart(f *fluid.Flow) {
	g := f.Group
	if g != nil {
		g.Finish, g.Remaining = s.now, 0
	}
	kept := s.active[:0]
	for _, a := range s.active {
		if a == f || (g != nil && a.Group == g) {
			a.Finish, a.Remaining = s.now, 0
			s.finished = append(s.finished, a)
			continue
		}
		kept = append(kept, a)
	}
	s.active = kept
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
