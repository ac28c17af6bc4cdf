package leap

import (
	"fmt"
	"slices"

	"numfabric/internal/fluid"
)

// runChecked is Engine.Run with checkInvariants between events: the
// same steps and the same horizon tail, so results are bit-identical
// to an unchecked Run.
func runChecked(e *Engine, until float64) {
	e.hooks.Profiler.Arm()
	for n := 0; e.now < until && e.step(until); n++ {
		if n%3 == 0 {
			e.checkInvariants()
		}
	}
	e.Run(until)
	e.checkInvariants()
}

// checkInvariants panics unless the engine's derived state agrees with
// its primary state, between events:
//
//   - the link index is exactly the links of the live admitted flows — the
//     table's tenants that are neither pending, finished nor released,
//     enumerated without consulting the index — and nLive counts them;
//   - no link carries more than its capacity (links crossed by a flow
//     awaiting re-solve are exempt: a failure zeroes capacity before
//     the solve that zeroes the rates);
//   - schedule slot i holds flow f exactly when f's stored position is
//     i+1; every finite flow has exactly one event while it drains and
//     none while it is stranded or unsolved, every completion event
//     belongs to one;
//   - the table's live slots are exactly the flows the engine still
//     references, and every other slot is released.
func (e *Engine) checkInvariants() {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("leap invariant at t=%v: ", e.now) + fmt.Sprintf(format, args...))
	}
	seeded := func(f *fluid.Flow) bool { return e.fs[f.ID].bits&seededBit != 0 }

	nl := e.net.Links()
	want := make([][]int32, nl)
	load := make([]float64, nl)
	unsettled := make([]bool, nl)
	waiting := map[*fluid.Flow]bool{}
	for _, f := range e.arrivals.waiting() {
		waiting[f] = true
	}
	var live []*fluid.Flow
	for id := 0; id < e.tbl.Cap(); id++ {
		f := e.tbl.ByID(id)
		if f.Links == nil || f.Done() || waiting[f] {
			continue
		}
		live = append(live, f)
		for _, l := range f.Links {
			want[l] = append(want[l], int32(f.ID))
			load[l] += f.Rate
			unsettled[l] = unsettled[l] || seeded(f)
		}
	}
	if len(live) != e.nLive {
		fail("%d live flows in the table, nLive = %d", len(live), e.nLive)
	}
	for l := range want {
		got := slices.Clone(e.links.flows[l])
		slices.Sort(got)
		slices.Sort(want[l])
		if !slices.Equal(got, want[l]) {
			fail("link index [%d] = %v, live flows crossing it are %v", l, got, want[l])
		}
		if c := e.net.Capacity[l]; !unsettled[l] && load[l] > c*(1+1e-9) {
			fail("link %d carries %v of capacity %v", l, load[l], c)
		}
	}

	events := map[int32]int{}
	for i, ev := range e.sched.ev {
		if ev.kind != evkFlow {
			continue
		}
		events[ev.id]++
		if at := e.sched.slot(ev.id); at != i {
			fail("schedule slot %d holds %+v, whose stored slot is %d", i, ev, at)
		}
	}
	// Each live finite flow is held to its event: settled means no
	// solve is pending for it, so rate and event must agree. With every
	// slot's flow pointing back at it (above), a flow that claims a
	// position and is counted once sits in exactly that slot.
	for _, f := range live {
		if f.SizeBytes == 0 {
			continue
		}
		id, bits, rate, settled := int32(f.ID), e.fs[f.ID].bits, f.Rate, !seeded(f)
		has := e.sched.has(id)
		n := events[id]
		delete(events, id)
		switch {
		case has != (n == 1) || n > 1:
			fail("flow %d: %d events, stored slot %d", id, n, e.sched.slot(id))
		case has && (rate <= 0 || bits&strandedBit != 0):
			fail("flow %d: event at rate %v, stranded %v", id, rate, bits&strandedBit != 0)
		case settled && has != (rate > 0):
			fail("flow %d: settled at rate %v, has event %v", id, rate, has)
		case settled && (bits&strandedBit != 0) != (rate <= 0):
			fail("flow %d: settled at rate %v, stranded %v", id, rate, bits&strandedBit != 0)
		}
	}
	if len(events) != 0 {
		fail("events without a draining flow: %v", events)
	}

	flows := map[int]bool{}
	for _, list := range [][]*fluid.Flow{e.arrivals.waiting(), live, e.finished} {
		for _, f := range list {
			if e.tbl.ByID(f.ID) != f {
				fail("flow %d is not its table slot's tenant", f.ID)
			}
			flows[f.ID] = true
		}
	}
	if len(flows) != e.tbl.Len() {
		fail("engine references %d flows, the table holds %d live", len(flows), e.tbl.Len())
	}
	for id := 0; id < e.tbl.Cap(); id++ {
		if !flows[id] && e.tbl.ByID(id).Links != nil {
			fail("table slot %d is neither referenced nor released", id)
		}
	}
}
