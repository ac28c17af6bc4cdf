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
//   - linkFlows is exactly the links of the live admitted flows;
//   - no link carries more than its capacity (links crossed by a flow
//     awaiting re-solve are exempt: a failure zeroes capacity before
//     the solve that zeroes the rates);
//   - every finite plain flow and group has exactly one live heap event
//     while it drains and none while it is stranded or unsolved, every
//     live event belongs to one, stale matches the heap's true stale
//     count and pendingFaults its fault events;
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
	var live []*fluid.Flow
	for _, f := range e.active {
		if f.Done() {
			continue
		}
		live = append(live, f)
		for _, l := range f.Links {
			want[l] = append(want[l], int32(f.ID))
			load[l] += f.Rate
			unsettled[l] = unsettled[l] || seeded(f)
		}
	}
	if len(live) != e.liveActive() {
		fail("%d live flows in active, liveActive() = %d", len(live), e.liveActive())
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
	stale, faults := 0, 0
	for _, ev := range e.heap.ev {
		switch {
		case ev.kind >= evkFail:
			faults++
		case e.valid(ev):
			events[owner{ev.kind, ev.id}]++
		default:
			stale++
		}
	}
	if stale != e.stale || faults != e.pendingFaults {
		fail("heap holds %d stale and %d fault events, engine counts %d and %d", stale, faults, e.stale, e.pendingFaults)
	}
	// checkOwner holds one finite flow or group to its event: settled
	// means no solve is pending for it, so rate and event must agree.
	checkOwner := func(o owner, bits uint32, rate float64, settled bool) {
		has := bits&evBit != 0
		n := events[o]
		delete(events, o)
		switch {
		case has != (n == 1) || n > 1:
			fail("owner %+v: %d live events, evBit %v", o, n, has)
		case has && (rate <= 0 || bits&strandedBit != 0):
			fail("owner %+v: live event at rate %v, stranded %v", o, rate, bits&strandedBit != 0)
		case settled && has != (rate > 0):
			fail("owner %+v: settled at rate %v, evBit %v", o, rate, has)
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
	for _, g := range e.activeGroups {
		if g.Done() {
			continue
		}
		groups[g] = true
		if g.SizeBytes > 0 {
			checkOwner(owner{evkGroup, int32(g.ID)}, e.gs[g.ID].bits, g.Rate(), !slices.ContainsFunc(g.Members, seeded))
		}
	}
	if len(events) != 0 {
		fail("live events without a draining owner: %v", events)
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
