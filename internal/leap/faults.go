package leap

import (
	"fmt"
	"math"

	"numfabric/internal/obs"
)

// linkFault is one link's fault state: the capacity recovery restores,
// the nested failure depth (capacity changes only on the 0↔1 edges) and
// when the link last went down, for the capacity-lost integral. The
// first FailLink/RecoverLink allocates the engine's records, so
// fault-free runs keep their zero-alloc steady state untouched.
type linkFault struct {
	base, downT float64
	depth       int32
}

// FailLink schedules directed link link to fail at time at (seconds;
// at ≤ Now applies on the next Step, at Now, and the downtime and the
// capacity-lost integral count from then, as the flows see it): its
// capacity drops to zero and every flow crossing it is re-solved —
// component-locally, since a failed link disturbs exactly the flows in
// its active index. Flows left with no usable capacity are stranded
// (rate zero, completion event cancelled, payload frozen). Failures
// nest: failing an already-failed link deepens a counter and changes
// nothing until the matching recoveries unwind it. Switch failures are
// expressed as the switch's incident directed links (fluid.FatTree's
// *SwitchLinks).
//
// Fault events ride the same schedule as completions and retire in a
// canonical order (completions first at a shared instant, then
// failures, then recoveries, then by link id), which internal/refsim
// shares, so a fault run is held to the same referee as a fault-free
// one. A link id outside the network or a NaN or infinite at panics
// naming the argument.
func (e *Engine) FailLink(link int, at float64) { e.scheduleFault("FailLink", link, at, evkFail) }

// RecoverLink schedules link to recover at time at (at ≤ Now applies
// on the next Step, at Now): once every nested failure has unwound,
// capacity is restored to its construction-time value and stranded
// flows on the link resume (a fresh re-solve assigns them positive rate
// and reschedules their completions). Recovering a healthy link is a
// counted no-op.
func (e *Engine) RecoverLink(link int, at float64) {
	e.scheduleFault("RecoverLink", link, at, evkRecover)
}

func (e *Engine) scheduleFault(fn string, link int, at float64, kind uint8) {
	if link < 0 || link >= e.net.Links() {
		panic(fmt.Sprintf("leap: %s: link %d of a %d-link network", fn, link, e.net.Links()))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		// NaN poisons the clock; ±Inf is never reached or always past.
		panic(fmt.Sprintf("leap: %s: at = %v, want a finite time", fn, at))
	}
	if e.faults == nil {
		e.faults = make([]linkFault, e.net.Links())
		for l, c := range e.net.Capacity {
			e.faults[l].base = c
		}
	}
	e.sched.pushFault(kind, int32(link), at)
}

// applyFault performs one due fault event at time t — its scheduled
// time, or Now for one scheduled in the past, which is billed from
// when it took effect: flip the link's capacity on the 0↔1 depth edge,
// account the degradation, and seed exactly the active flows crossing
// the link for the next re-solve.
// Same-instant fail+recover pairs cancel (capacity net unchanged, zero
// downtime accrued) but still trigger the seeded re-solve, which finds
// every rate unchanged and leaves the schedule untouched.
func (e *Engine) applyFault(link int, fail bool, t float64) {
	e.stats.Faults++
	r := &e.faults[link]
	if fail {
		r.depth++
		if r.depth > 1 {
			return
		}
		e.net.SetCapacity(link, 0)
		r.downT = t
		e.stats.LinksDown++
		e.batchCause = obs.CauseFail
	} else {
		if r.depth == 0 {
			return
		}
		r.depth--
		if r.depth > 0 {
			return
		}
		e.net.SetCapacity(link, r.base)
		if dt := t - r.downT; dt > 0 {
			e.stats.CapacityLostBitSec += r.base * dt
		}
		e.stats.LinksDown--
		e.batchCause = obs.CauseRecover
	}
	e.batch.seedIDs(e.links.flows[link])
}
