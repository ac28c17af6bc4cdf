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
//   - linkFlows is exactly the links of the live admitted flows — the
//     table's tenants that are neither pending, finished nor released,
//     enumerated without consulting linkFlows — and nLive counts them;
//   - no link carries more than its capacity (links crossed by a flow
//     awaiting re-solve are exempt: a failure zeroes capacity before
//     the solve that zeroes the rates);
//   - schedule slot i holds owner o exactly when o's stored position is
//     i+1; every finite plain flow and group has exactly one event while
//     it drains and none while it is stranded or unsolved, every
//     completion event belongs to one, and pendingFaults counts the
//     fault events;
//   - the tables' live slots are exactly the flows and groups the
//     engine still references, and every other slot is released.
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
	for _, f := range e.pending[e.next:] {
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
		got := slices.Clone(e.linkFlows[l])
		slices.Sort(got)
		slices.Sort(want[l])
		if !slices.Equal(got, want[l]) {
			fail("linkFlows[%d] = %v, live flows crossing it are %v", l, got, want[l])
		}
		if c := e.net.Capacity[l]; !unsettled[l] && load[l] > c*(1+1e-9) {
			fail("link %d carries %v of capacity %v", l, load[l], c)
		}
	}

	type owner struct {
		kind uint8
		id   int32
	}
	events := map[owner]int{}
	faults := 0
	for i, ev := range e.sched.ev {
		if ev.kind >= evkFail {
			faults++
			continue
		}
		events[owner{ev.kind, ev.id}]++
		if at := e.sched.slot(ev.kind, ev.id); at != i {
			fail("schedule slot %d holds %+v, whose stored slot is %d", i, ev, at)
		}
	}
	if faults != e.pendingFaults {
		fail("schedule holds %d fault events, engine counts %d", faults, e.pendingFaults)
	}
	// checkOwner holds one finite flow or group to its event: settled
	// means no solve is pending for it, so rate and event must agree.
	// With every slot's owner pointing back at it (above), an owner that
	// claims a position and is counted once sits in exactly that slot.
	checkOwner := func(o owner, bits uint32, rate float64, settled bool) {
		has := e.sched.has(o.kind, o.id)
		n := events[o]
		delete(events, o)
		switch {
		case has != (n == 1) || n > 1:
			fail("owner %+v: %d events, stored slot %d", o, n, e.sched.slot(o.kind, o.id))
		case has && (rate <= 0 || bits&strandedBit != 0):
			fail("owner %+v: event at rate %v, stranded %v", o, rate, bits&strandedBit != 0)
		case settled && has != (rate > 0):
			fail("owner %+v: settled at rate %v, has event %v", o, rate, has)
		case settled && o.kind == evkFlow && (bits&strandedBit != 0) != (rate <= 0):
			fail("owner %+v: settled at rate %v, stranded %v", o, rate, bits&strandedBit != 0)
		}
	}
	for _, f := range live {
		if f.Group == nil && f.SizeBytes > 0 {
			checkOwner(owner{evkFlow, int32(f.ID)}, e.fs[f.ID].bits, f.Rate, !seeded(f))
		}
	}
	groups := map[*fluid.Group]bool{}
	for _, f := range live {
		g := f.Group
		if g == nil || groups[g] {
			continue
		}
		groups[g] = true
		if g.SizeBytes > 0 {
			checkOwner(owner{evkGroup, int32(g.ID)}, e.gs[g.ID].bits, g.Rate(), !slices.ContainsFunc(g.Members, seeded))
		}
	}
	if len(events) != 0 {
		fail("events without a draining owner: %v", events)
	}

	flows := map[int]bool{}
	for _, list := range [][]*fluid.Flow{e.pending[e.next:], live, e.finished} {
		for _, f := range list {
			if e.tbl.ByID(f.ID) != f {
				fail("flow %d is not its table slot's tenant", f.ID)
			}
			flows[f.ID] = true
			if g := f.Group; g != nil {
				groups[g] = true
			}
		}
	}
	for _, g := range e.finishedGroups {
		groups[g] = true
	}
	if len(flows) != e.tbl.Len() || len(groups) != e.gtbl.Len() {
		fail("engine references %d flows and %d groups, tables hold %d and %d live", len(flows), len(groups), e.tbl.Len(), e.gtbl.Len())
	}
	for id := 0; id < e.tbl.Cap(); id++ {
		if !flows[id] && e.tbl.ByID(id).Links != nil {
			fail("table slot %d is neither referenced nor released", id)
		}
	}
}
