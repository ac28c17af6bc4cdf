// Package leap is an event-driven flow-level simulation engine: the
// sparse-workload fast path next to internal/fluid's epoch engine.
//
// The fluid engine advances in fixed epochs — admit, allocate, drain —
// so a sparse dynamic workload burns almost all of its cycles
// re-solving an unchanged allocation between arrivals. This package
// instead leaps straight to the next event: the earlier of the next
// scheduled arrival and the earliest flow completion under the current
// rates. Rates are recomputed only when the active set changes,
// completion times are exact (no epoch quantization of arrivals or
// departures), and fully idle or fully steady stretches cost nothing
// regardless of their simulated length. This is the
// standard flow-level event-driven construction — internal/refsim is
// its naive form, the referee this package's tests and fuzz target
// hold the engine to — made incremental for pluggable allocators and
// million-flow workloads. It plays single-path flows; multipath groups
// (Figure 8's resource pooling) run on the epoch engine.
//
// The engine reuses the fluid package wholesale: fluid.Network link
// capacities, fluid.Flow state, and every fluid.Allocator (WaterFill,
// XWI, DGD, Oracle). For the stationary allocators (WaterFill, Oracle)
// event-driven advancement is exact: rates are a pure function of the
// active set, so holding them constant between events loses nothing. For the dynamic allocators (XWI, DGD) each
// event runs the allocator's IterPerEpoch internal iterations once —
// configure enough iterations to reach the fixed point (prices
// warm-start across events) and the engine models a transport that
// converges between events, which the paper measures to take only
// tens of RTTs; the epoch engine remains the tool for studying the
// convergence transient itself.
//
// Work is bounded by LOCAL events, not events: an arrival or
// departure can only disturb the flows in its own connected component
// of the link-sharing graph (flows are vertices, sharing a link is an
// edge), because the component's flows collectively see every unit of
// capacity on every link they cross — no flow outside it competes
// there. So each coupled event re-solves just the touched
// component(s), via the allocators' link-closed subset path
// (fluid.SubsetAllocator): the engine keeps a per-link index of
// active flows, floods out from the event's flows to collect the
// component, and hands exactly those flows to the allocator against
// the full link capacities. Flows in untouched components provably
// keep their rates, and their scheduled completions stay valid.
//
// The limiting fast paths fall out of the same machinery: a flow that
// shares no link with any active flow is a component of size one, so
// its arrival takes its path's minimum capacity (the single-flow
// optimum under any increasing utility) and schedules one completion
// with no allocator call at all, and a departure that leaves its links
// empty pops one. On sparse
// workloads, where most flows run alone at line rate, most events
// reduce to O(path length + log n) — and even the coupled minority
// pays for its few-flow component, not for the whole active set.
//
// The engine is one serial event loop over one schedule. All
// events sharing an instant — a batch of synchronized arrivals plus
// any completions landing on it — seed one reallocation batch; the
// flood partitions the touched flows into their disjoint connected
// components (overlapping seeds merge) and the components are settled
// one after another, in seed order, each at the batch instant and each
// in one pass: solve, install the rates, move the completions whose
// rates changed. Link failures and recoveries are ordinary events on
// the same schedule.
// The loop is single-threaded by measurement, not by omission: README
// "Why the leap engine is single-threaded" has the numbers.
//
// The Engine (this file) owns the loop — admit, settle the touched
// components, retire what is due — and each of the loop's other
// decisions is one unexported type in its own file:
//   - heap.go, schedule: the events, one completion per draining flow;
//   - links.go, linkIndex: the active flows by link, and the flood;
//   - batch.go, componentBatch: a batch's seeds, components and rates;
//   - arrivals.go, arrivalQueue: the waiting flows, admission order;
//   - faults.go, linkFault: a link's base capacity, depth and downtime;
//   - trace.go, traceScratch: the flow tracer's component reports.
package leap

import (
	"math"
	"slices"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// Config parameterizes an Engine.
type Config struct {
	// Allocator computes rates at each active-set change, through its
	// link-closed subset path (default fluid.NewWaterFill() —
	// stationary, so event-driven advancement is exact). The engine
	// solves on this object, from its own goroutine only; if it has the
	// fluid.ParallelSubsetAllocator priming seam (every built-in
	// allocator does) NewEngine calls Prime(net) on it once.
	Allocator fluid.SubsetAllocator
	// Obs attaches optional observability hooks: a phase profiler for
	// the event loop, a tracer recording batch and solve spans, the live
	// snapshot behind /metrics and /progress, a flow-lifecycle tracer.
	// Nil hooks (the default) cost one inlined branch a site — the
	// engine calls them unguarded, internal/obs owns the nil check — so
	// the hot loop stays allocation-free, and completions are
	// byte-identical with hooks on or off (instrumentation never
	// touches engine state).
	Obs obs.Hooks
}

// Stats is the engine's work telemetry: what the run cost, in the
// units that explain the event-driven design (the json tags: obs.Live).
type Stats struct {
	// Events is how many events (arrival instants and completion
	// batches) were processed.
	Events int `json:"events"`
	// Allocs is how many allocator solves ran — one per coupled event
	// whose component holds more than one flow.
	Allocs int `json:"allocs"`
	// SolvedFlows is the total flows handed to the allocator across
	// all solves (allocations × flows-per-solve), the engine's real
	// allocator work.
	SolvedFlows int `json:"solved_flows"`
	// MaxComponent is the largest single solve's flow count.
	MaxComponent int `json:"max_component"`
	// Elided is how many active-set changes were handled with no
	// allocator call at all: isolated arrivals and size-one components
	// (both take the path's minimum capacity), plus departures that
	// left nothing behind to re-solve.
	Elided int `json:"elided"`
	// FullSolveFlows is the counterfactual SolvedFlows of the
	// pre-component engine (whole-set re-solves with the isolated-arrival
	// elision it already had): the full active-set size, summed over
	// every event that reaches reallocation — size-one components
	// included, since only component tracking can elide those — while
	// isolated arrivals stay free on both sides of the comparison.
	// SolvedFlows / FullSolveFlows is therefore a conservative
	// component-local win; re-solving everything at every event with
	// no elision at all (internal/refsim) pays far more still.
	FullSolveFlows int `json:"full_solve_flows"`
	// Batches is how many reallocation batches ran — one per event
	// instant whose seeds (same-timestamp arrivals plus completions
	// landing on it) touched at least one component.
	Batches int `json:"batches"`
	// BatchComponents is the total disjoint components across all
	// batches; BatchComponents/Batches is the mean batch width.
	BatchComponents int `json:"batch_components"`
	// MaxBatchComponents is the widest single batch's component count.
	MaxBatchComponents int `json:"max_batch_components"`
	// Faults is how many fault events (FailLink/RecoverLink) the
	// engine applied, nested repeats and no-op recoveries included.
	Faults int `json:"faults"`
	// Stranded counts finite flows driven to rate zero — every
	// usable path crosses a dead link — with their completion event
	// cancelled and payload frozen; Resumed counts strandings lifted
	// by a later re-solve finding positive rate again (recovery, or a
	// departure freeing an alternative). A flow stranded twice counts
	// twice.
	Stranded int `json:"stranded"`
	Resumed  int `json:"resumed"`
	// StrandedSec is the total flow-seconds spent stranded, accrued
	// when each stranding is lifted — flows still stranded when the
	// run stops are not included (their loss is visible as unfinished
	// Remaining instead).
	StrandedSec float64 `json:"stranded_sec"`
	// CapacityLostBitSec integrates failed capacity over downtime:
	// Σ base-capacity × (recover − fail) over recovered links, in
	// bit-seconds. Links still down when the run stops are not
	// included; LinksDown reports how many those are.
	CapacityLostBitSec float64 `json:"capacity_lost_bit_sec"`
	// LinksDown is the number of links currently failed (depth ≥ 1).
	LinksDown int `json:"links_down"`
	// AllocIters is the allocator's total internal iterations (price
	// updates, gradient steps, solver iterations) when the allocator
	// counts them (implements fluid.IterCounter); zero otherwise.
	// Allocs counts solve calls; this counts the work inside them.
	AllocIters int64 `json:"alloc_iters"`
	// PhaseNanos is the per-phase wall-time breakdown of Run when a
	// profiler hook is attached (Config.Obs.Profiler); all zeros
	// otherwise. Index with obs.Phase; consecutive laps tile the event
	// loop, so the sum is within noise of the wall time spent in Run.
	PhaseNanos [obs.PhaseCount]int64 `json:"phase_ns"`
}

// flowState is the engine's per-flow bookkeeping, packed to 16 bytes
// so a million-flow run stays cache-friendly: refT is the time the
// flow's rate was last set — payload drain is lazy, Remaining holds
// the payload as of refT and is materialized via
// Remaining -= (now − refT) × rate / 8 only when the rate actually
// changes, so an event costs its component, not a sweep over every
// active flow (and a same-instant rate change drains exactly zero);
// seq is the admission sequence number components are sorted by; and
// bits holds the flow's position in the schedule plus the flag bits
// below.
type flowState struct {
	refT float64
	bits uint32
	seq  int32
}

// flowState bits: three flags below posShift and, above it, the flow's
// position in the schedule — heap index + 1, zero while the flow has
// no completion scheduled. Only the schedule writes the position
// (heap.go); the engine reads it through schedule.has. seededBit marks
// a pending reallocation seed, inCompBit membership in the component
// being collected. strandedBit marks a finite flow currently held at
// rate zero by dead capacity (see Stats.Stranded); while it is set the
// flow has no event and refT records when the stranding began, so the
// resume can accrue the stranded-time integral.
const (
	seededBit   = 1 << 0
	inCompBit   = 1 << 1
	strandedBit = 1 << 2
	posShift    = 3
	flagMask    = 1<<posShift - 1
)

// grow returns s with its backing array doubled once length reaches
// capacity: for multi-megabyte slices the runtime's growth factor
// drops to 1.25×, and the reallocation churn is measurable at a
// million flows. Use as append(grow(s), ...).
func grow[T any](s []T) []T {
	if len(s) == cap(s) {
		g := make([]T, len(s), 2*cap(s)+64)
		copy(g, s)
		return g
	}
	return s
}

// Engine advances a fluid network event by event. Between events every
// rate is constant, so the state at the next event follows in closed
// form; nothing is simulated in between.
type Engine struct {
	net *fluid.Network
	// alloc is Config.Allocator, primed once by NewEngine; every
	// component solve is one AllocateSubset call on it.
	alloc fluid.SubsetAllocator
	// tbl is the engine's pooled flow storage: slab-stable pointers,
	// dense recycled ids, arena-backed paths. Every id the engine keys
	// its state by — events, the link index, fs — resolves through it.
	tbl *fluid.FlowTable

	now      float64
	arrivals arrivalQueue

	// nLive counts the flows admitted and not yet completed (stranded
	// flows included); the link index holds them by link and the table
	// holds them, so no list of them is kept.
	nLive    int
	finished []*fluid.Flow

	sched schedule
	links linkIndex
	// fs[id] is the per-flow engine state (flow IDs are dense).
	fs     []flowState
	batch  componentBatch
	faults []linkFault
	// batchCause is the FlowTracer cause code the next solve's rate
	// segments are stamped with: CauseSolve normally, CauseFail or
	// CauseRecover for the re-solve a fault event triggers (fault
	// instants solve alone — completions at the same instant retire
	// first — so the stamp is exact). Reset to CauseSolve after every
	// solve point.
	batchCause obs.Cause

	// stats is the one counter block: the loop increments its fields
	// in place and Stats() returns it.
	stats Stats
	// hooks is Config.Obs, called unguarded (nil hooks are no-ops in
	// internal/obs). Tracer track 0 carries the event loop's batch
	// spans, track 1 the component solve spans.
	hooks obs.Hooks
	trace traceScratch
}

// NewEngine returns an event-driven engine over net.
func NewEngine(net *fluid.Network, cfg Config) *Engine {
	if cfg.Allocator == nil {
		cfg.Allocator = fluid.NewWaterFill()
	}
	e := &Engine{
		net:        net,
		alloc:      cfg.Allocator,
		tbl:        fluid.NewFlowTable(),
		batchCause: obs.CauseSolve,
		hooks:      cfg.Obs,
		links:      linkIndex{flows: make([][]int32, net.Links()), mark: make([]int, net.Links())},
	}
	e.sched.fs = &e.fs
	e.batch.fs, e.batch.tbl = &e.fs, e.tbl
	if ps, ok := cfg.Allocator.(fluid.ParallelSubsetAllocator); ok {
		// The cold start every committed fingerprint took: warm state
		// sized for the whole network up front, not seeded lazily from
		// whichever component happens to solve first.
		ps.Prime(net)
	}
	if e.hooks.FlowTrace != nil {
		e.hooks.FlowTrace.Bind(net.Capacity)
	}
	return e
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Finished returns every completed flow, in completion order.
// ReleaseFinished truncates the list.
func (e *Engine) Finished() []*fluid.Flow { return e.finished }

// Tables returns the engine's flow storage table.
func (e *Engine) Tables() *fluid.FlowTable { return e.tbl }

// ReleaseFinished recycles every finished flow back to the engine's
// table and truncates the finished list, returning the count released.
// Churn-heavy drivers call it after harvesting FCTs — between Run
// calls, or periodically during one — so ids, slab slots, and path
// segments recycle and sustained churn allocates nothing; without it
// the table grows with the total admitted (every pointer stays valid
// forever, the pre-table behavior). Previously returned pointers to the
// released flows are invalid afterward. Only the list is truncated:
// Stats and the progress snapshot's finished count are cumulative. A
// finished flow holds no scheduled event (finishing popped it), so its
// id can be reissued at once.
// Not safe to interleave with an in-flight Step on another goroutine
// (the engine was never concurrency-safe at the API level).
func (e *Engine) ReleaseFinished() int {
	// A survivor seeded and retired in one instant stays a seed when the
	// run drains right there; drop done seeds, or the slot's next tenant
	// would inherit them.
	e.batch.touched = slices.DeleteFunc(e.batch.touched, (*fluid.Flow).Done)
	// The admitted prefix of pending still references its flows; drop it
	// so nothing points at a recycled slot.
	if e.arrivals.next > 0 {
		e.arrivals.dropAdmitted()
	}
	n := len(e.finished)
	for i, f := range e.finished {
		e.tbl.Release(f)
		e.finished[i] = nil
	}
	e.finished = e.finished[:0]
	return n
}

// Stats returns the engine's work telemetry so far.
func (e *Engine) Stats() Stats {
	s := e.stats
	if ic, ok := e.alloc.(fluid.IterCounter); ok {
		s.AllocIters = ic.SolveIters()
	}
	s.PhaseNanos = e.hooks.Profiler.Nanos()
	return s
}

// AddFlow schedules a flow over links, arriving at time at (seconds;
// at ≤ Now admits it on the next Step), with utility u and payload
// sizeBytes (0 = unbounded). It returns the Flow for inspection. A
// malformed argument — an empty path, a link id outside the network,
// a nil utility, a negative size, a NaN or infinite at — is a
// programmer error and panics naming the argument, as FailLink and
// RecoverLink do.
//
// Flows may be added between Steps, so a driver need not hold a whole
// schedule in the engine: see Step for the rule that keeps such a run
// identical to the preloaded one.
func (e *Engine) AddFlow(links []int, u core.Utility, sizeBytes int64, at float64) *fluid.Flow {
	fluid.CheckFlow("leap: AddFlow", e.net, links, u, sizeBytes, at)
	f := e.tbl.Acquire(links, u, sizeBytes, at)
	id := f.ID
	for id >= len(e.fs) {
		e.fs = append(grow(e.fs), flowState{})
	}
	// A recycled id starts clean: its previous tenant was released
	// finished, and finishing popped the only event it had.
	e.fs[id] = flowState{}
	e.arrivals.add(f)
	return f
}

// admitDue moves every pending flow with Arrive ≤ now into the active
// set. A flow whose links carry no other active flow takes the
// independence fast path: its single-flow optimum, one completion
// spliced into the schedule, no allocation — or, admitted straight onto
// a dead path, stranded from birth until a recovery re-solves it.
// Everything else seeds the next component re-solve.
func (e *Engine) admitDue() {
	for {
		f, seq := e.arrivals.admit(e.now)
		if f == nil {
			break
		}
		e.fs[f.ID].seq = seq
		e.nLive++
		if !e.links.link(f) {
			e.hooks.FlowTrace.Admit(f.ID, f.SizeBytes, f.Arrive, f.Links)
			e.batch.seed(f)
			continue
		}
		e.installFlow(f, e.pathMinCap(f))
		e.stats.Elided++
		// No solver ran: the flow takes its line rate, bottlenecked by the
		// path's min-capacity link (the tracer's default).
		e.hooks.FlowTrace.AdmitRate(f.ID, f.SizeBytes, f.Arrive, f.Links, e.now, f.Rate, uint64(e.stats.Batches))
	}
	// Compact once the admitted prefix dominates: amortized O(1) per
	// admission, and pending stays bounded under churn.
	if n := e.arrivals.next; n > 64 && 2*n >= len(e.arrivals.pending) {
		e.arrivals.dropAdmitted()
	}
}

// pathMinCap returns the minimum capacity along f's path — the
// single-flow optimum, which any increasing utility wants in full.
func (e *Engine) pathMinCap(f *fluid.Flow) float64 {
	rate := math.Inf(1)
	for _, l := range f.Links {
		if c := e.net.Capacity[l]; c < rate {
			rate = c
		}
	}
	return rate
}

// installFlow installs a flow's new rate at the current
// instant: it materializes the lazy drain under the outgoing rate and
// moves the flow's completion to the time the new rate implies (or
// removes it, at rate zero). A completion time computed from an
// unchanged rate is still exact — drain is linear — so then the
// existing event stands untouched, which is what keeps untouched
// rates' schedules byte-stable across other components'
// reallocations.
//
// A zero rate strands the flow: no drain accrues (old ≤ 0 skips the
// materialization), its event is cancelled, and refT freezes at the
// stranding instant; the resume returns the time spent stranded for
// the caller to sum (zero on every other path).
func (e *Engine) installFlow(f *fluid.Flow, rate float64) (strandedSec float64) {
	old, now := f.Rate, e.now
	if f.SizeBytes == 0 {
		f.Rate = rate
		return 0
	}
	s := &e.fs[f.ID]
	if rate <= 0 {
		if s.bits&strandedBit == 0 {
			s.bits |= strandedBit
			e.stats.Stranded++
			if old <= 0 {
				// Rate was already zero (admitted dead): the stranding
				// clock starts now; a positive old rate instead drains
				// below, which also sets refT to now.
				s.refT = now
			}
		}
	} else if s.bits&strandedBit != 0 {
		s.bits &^= strandedBit
		e.stats.Resumed++
		strandedSec = math.Max(now-s.refT, 0)
	}
	if rate == old && e.sched.has(int32(f.ID)) == (rate > 0) {
		return strandedSec
	}
	if old > 0 {
		// Materialize the lazy drain under the outgoing rate. A
		// same-instant change (now == refT) drains exactly zero.
		f.Remaining -= (now - s.refT) * old / 8
		if f.Remaining < 0 {
			f.Remaining = 0
		}
	}
	s.refT = now
	f.Rate = rate
	if rate > 0 {
		e.sched.set(int32(f.ID), now+f.Remaining*8/rate)
	} else {
		e.sched.cancel(int32(f.ID))
	}
	return strandedSec
}

// solveComponent settles one component in one pass at the batch
// instant: the size-one elision or the allocator call, then each rate
// installed and each moved completion re-keyed (or cancelled) where it
// moves, then the counters and the flow tracer. A flow whose rate came
// back unchanged keeps its event untouched. The order of the schedule
// operations cannot move a bit: every flow has at most one event and
// event.before is a strict total order (see schedule).
func (e *Engine) solveComponent(r compRange) {
	flows := e.batch.comp[r.f0:r.f1]
	if len(flows) == 1 {
		// A component of one flow needs no allocator at all: it
		// takes its path's minimum capacity, the same independence
		// elision its arrival fast path uses, generalized to
		// departures that leave a lone neighbor behind.
		e.stats.StrandedSec += e.installFlow(flows[0], e.pathMinCap(flows[0]))
		e.stats.Elided++
		e.traceComponent(flows, nil)
		return
	}
	rates := e.batch.rates[r.f0:r.f1]
	e.alloc.AllocateSubset(e.net, flows, rates)
	// Stranded time sums per component first, then into Stats: the
	// float summation order every committed StrandedSec was made with.
	var strandedSec float64
	for i, f := range flows {
		strandedSec += e.installFlow(f, rates[i])
	}
	e.stats.Allocs++
	e.stats.SolvedFlows += len(flows)
	e.stats.MaxComponent = max(e.stats.MaxComponent, len(flows))
	e.stats.StrandedSec += strandedSec
	e.hooks.Live.Solve(len(flows))
	e.traceComponent(flows, rates)
}

// reallocate re-solves the disjoint component(s) the pending seeds
// touch — one batch, the components settled one after another in seed
// order, each at the batch instant e.now.
func (e *Engine) reallocate() {
	comps := e.links.collectComponents(&e.batch)
	nc := len(comps)
	e.hooks.Profiler.Lap(obs.PhaseFlood)
	if nc == 0 {
		return
	}
	batchStart := e.hooks.Tracer.Clock()
	e.stats.FullSolveFlows += e.nLive
	e.stats.Batches++
	e.stats.BatchComponents += nc
	e.stats.MaxBatchComponents = max(e.stats.MaxBatchComponents, nc)
	e.hooks.Live.Batch(nc)
	e.batch.rates = slices.Grow(e.batch.rates[:0], len(e.batch.comp))[:len(e.batch.comp)]
	for _, r := range comps {
		start := e.hooks.Tracer.Clock()
		e.solveComponent(r)
		e.hooks.Tracer.Span(1, start, int64(r.f1-r.f0))
	}
	e.hooks.Profiler.Lap(obs.PhaseSolve)
	e.hooks.Tracer.Span(0, batchStart, int64(nc))
}

// materialize realizes every active finite payload's lazy drain at
// time t. Run calls it once when a finite horizon cuts the simulation
// short, so flows left unfinished expose the Remaining they would
// have under eager draining. The draining flows are exactly the
// schedule's completions, and each drains independently of the rest,
// so heap order serves as well as any.
func (e *Engine) materialize(t float64) {
	for _, ev := range e.sched.ev {
		if ev.kind != evkFlow {
			continue
		}
		f := e.tbl.ByID(int(ev.id))
		s := &e.fs[ev.id]
		f.Remaining -= (t - s.refT) * f.Rate / 8
		if f.Remaining < 0 {
			f.Remaining = 0
		}
		s.refT = t
	}
}

// complete retires every event due at time t, in the schedule's order:
// a fault is applied; a flow is finished and unlinked, seeding the
// neighbors its departure uncouples. A departure that shared no link
// keeps the fast path: the remaining schedule stands.
func (e *Engine) complete(t float64) {
	slack := 1e-12 * (1 + math.Abs(t))
	for e.sched.len() > 0 && e.sched.top().t <= t+slack {
		ev := e.sched.pop()
		if ev.kind != evkFlow {
			e.applyFault(int(ev.id), ev.kind == evkFail, math.Max(ev.t, e.now))
			continue
		}
		f := e.tbl.ByID(int(ev.id))
		f.Finish = ev.t
		f.Remaining = 0
		e.finished = append(grow(e.finished), f)
		e.nLive--
		e.hooks.FlowTrace.Complete(f.ID, ev.t)
		if !e.links.unlink(f, &e.batch) {
			e.stats.Elided++
		}
	}
}

// Step advances to the next event: admit due arrivals, reallocate the
// touched component(s) if anything was seeded, and jump time to the
// earlier of the next arrival and the earliest completion. It reports
// whether any further event can occur; false means the simulation has
// reached a state that will never change again (no pending arrivals
// and no finite flow draining — any remaining active flows are
// unbounded and hold their current rates forever).
//
// A driver may feed arrivals while stepping, harvesting Finished and
// calling ReleaseFinished as it goes. The run is the preloaded one, bit
// for bit and counter for counter (TestStepFedMatchesPreloaded), under
// the strict-lookahead rule: before every Step, every arrival with
// at ≤ Now has been added, and so has one arrival strictly after Now
// (or there is none left) — a Step jumps to the earlier of the next
// completion and the earliest arrival it has been given, which must
// therefore be the schedule's next. Step, not Run(next arrival):
// stopping at a deadline materializes the lazy drain, which rounds
// differently from draining in one piece.
func (e *Engine) Step() bool {
	more := e.step(math.Inf(1))
	e.publish(!more)
	return more
}

// publish is the live hook's one site: the engine's position and Stats
// value, and the flow tracer's /flows and /links pages, on a scraper's
// request or (final) whenever a run ends.
func (e *Engine) publish(final bool) {
	if l := e.hooks.Live; l.Due(final) {
		e.hooks.FlowTrace.Publish()
		l.Publish(e.now, e.nLive, int(e.arrivals.nadmit)-e.nLive, e.Stats())
	}
}

// settle re-solves whatever the last admissions, completions and
// faults left seeded.
func (e *Engine) settle() {
	if len(e.batch.touched) > 0 {
		e.reallocate()
	}
	e.batchCause = obs.CauseSolve
}

// step is Step bounded by a deadline: if the next event lies beyond
// it, time advances (and payloads drain) only to the deadline and no
// event fires.
func (e *Engine) step(deadline float64) bool {
	e.hooks.Profiler.Lap(obs.PhaseLoop)
	e.admitDue()
	e.hooks.Profiler.Lap(obs.PhaseAdmit)
	e.settle()
	tC := math.Inf(1)
	if e.sched.len() > 0 {
		tC = e.sched.top().t
	}
	tA := math.Inf(1)
	if w := e.arrivals.waiting(); len(w) > 0 {
		tA = w[0].Arrive
	}
	// No completion, fault or arrival left: nothing can change again.
	if math.IsInf(tC, 1) && math.IsInf(tA, 1) {
		return false
	}
	t := math.Min(tC, tA)
	if t < e.now {
		t = e.now
	}
	if t > deadline {
		e.materialize(deadline)
		e.now = deadline
		e.hooks.Profiler.Lap(obs.PhaseDrain)
		return true
	}
	e.now = t
	e.complete(t)
	e.stats.Events++
	e.hooks.Profiler.Lap(obs.PhaseComplete)
	return true
}

// Run advances events until nothing further can happen or time reaches
// until (seconds; math.Inf(1) runs to completion of every finite
// flow). Flows still draining at until are left unfinished — with
// rates settled and payloads materialized at until, exactly as the
// epoch engine leaves them. A NaN until panics: no time compares
// with it, so the run would return at once with nothing done.
func (e *Engine) Run(until float64) {
	if math.IsNaN(until) {
		panic("leap: Run: until = NaN, want a time or math.Inf(1)")
	}
	e.hooks.Profiler.Arm()
	defer e.publish(true)
	for e.now < until {
		if !e.step(until) {
			return
		}
		e.publish(false)
	}
	if math.IsInf(until, 1) {
		return
	}
	// An event landing exactly on the horizon exits the loop without
	// the deadline branch having run: settle any seeds that final
	// completion left (so survivors expose their re-solved rates) and
	// materialize the lazy drain.
	e.settle()
	e.materialize(e.now)
	e.hooks.Profiler.Lap(obs.PhaseDrain)
}
