package fluid

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"numfabric/internal/core"
	"numfabric/internal/obs"
)

// Config parameterizes an Engine.
type Config struct {
	// Epoch is the allocation period in seconds. A value ≤ 0 means the
	// default, 100 µs (about the packet transport's price-update
	// cadence); NaN or +Inf panics in NewEngine.
	Epoch float64
	// Allocator computes per-epoch rates (default NewXWI()).
	Allocator Allocator
	// Obs attaches optional observability hooks (phase profiler, the live
	// snapshot behind /metrics and /progress), called unguarded —
	// internal/obs owns the nil check: a nil hook costs one branch.
	Obs obs.Hooks
}

func (c Config) withDefaults() Config {
	if c.Epoch <= 0 {
		c.Epoch = 100e-6
	}
	if c.Allocator == nil {
		c.Allocator = NewXWI()
	}
	return c
}

// Engine advances a fluid network in fixed epochs. Each Step admits
// due arrivals, asks the Allocator for rates, and drains every active
// flow for one epoch; finite flows that empty mid-epoch get their
// Finish stamped at the exact sub-epoch completion time (rates are
// held constant within an epoch).
type Engine struct {
	net *Network
	cfg Config

	now      float64
	pending  []*Flow // future arrivals
	unsorted bool
	active   []*Flow
	finished []*Flow
	rates    []float64
	// flows issues every flow the engine admits, with dense ids;
	// nothing is released.
	flows FlowTable
	// changed tracks whether the active set was modified since the
	// last allocation; stationary allocators skip recomputation while
	// it is false.
	changed    bool
	stationary bool

	// stats is the one counter block (Step increments it in place,
	// Stats() returns it); hooks is Config.Obs, called unguarded.
	stats Stats
	hooks obs.Hooks
}

// Stats is the epoch engine's work telemetry — the counterpart of
// leap.Engine.Stats for the fixed-epoch fast path. The epoch engine
// re-solves the whole active set (its "component" is always the full
// link-sharing graph), so the interesting ratio is how many of its
// epochs the stationary-allocator skip turned into free drains. (The
// json tags: obs.Live — Epochs is the epoch engine's event count.)
type Stats struct {
	// Epochs is how many epochs advanced with at least one active flow
	// (idle gaps are jumped and not counted).
	Epochs int `json:"events"`
	// Allocs is how many allocator solves ran — at most one per epoch,
	// fewer when a stationary allocator's cached rates were reused.
	Allocs int `json:"allocs"`
	// SolvedFlows is the total flows handed to the allocator across
	// all solves (the engine's real allocator work; always the full
	// active set, unlike leap's touched components).
	SolvedFlows int `json:"solved_flows"`
	// MaxSolve is the largest single solve's flow count — the active-
	// set high-water mark at allocation time.
	MaxSolve int `json:"max_solve"`
	// SkippedAllocs is how many active epochs reused the previous
	// allocation because the allocator is stationary and no flow
	// arrived or departed — the epoch engine's only elision.
	SkippedAllocs int `json:"skipped_allocs"`
	// AllocIters is the allocator's total internal iterations (price
	// updates, gradient steps, solver iterations) when the allocator
	// counts them (implements IterCounter); zero otherwise. Allocs
	// counts solve calls; this counts the work inside them.
	AllocIters int64 `json:"alloc_iters"`
	// PhaseNanos is the per-phase wall-time breakdown of Run when a
	// profiler hook is attached (Config.Obs.Profiler); all zeros
	// otherwise. Index with obs.Phase.
	PhaseNanos [obs.PhaseCount]int64 `json:"phase_ns"`
}

// Stats returns the engine's work telemetry so far.
func (e *Engine) Stats() Stats {
	s := e.stats
	if ic, ok := e.cfg.Allocator.(IterCounter); ok {
		s.AllocIters = ic.SolveIters()
	}
	s.PhaseNanos = e.hooks.Profiler.Nanos()
	return s
}

// StationaryAllocator is an optional Allocator refinement: a true
// Stationary() declares the allocation a pure function of the active
// flow set (no internal dynamics), letting the engine skip
// recomputation on epochs where no flow arrived or departed.
// WaterFill is stationary; XWI and DGD are not (their prices move
// every epoch).
type StationaryAllocator interface {
	Allocator
	Stationary() bool
}

// NewEngine returns an engine over net. A NaN or +Inf cfg.Epoch panics
// naming the field: the clock would jump to NaN or +Inf on the first
// Step, stamping bogus finishes and never admitting a later arrival.
func NewEngine(net *Network, cfg Config) *Engine {
	if math.IsNaN(cfg.Epoch) || math.IsInf(cfg.Epoch, 1) {
		panic(fmt.Sprintf("fluid: NewEngine: Config.Epoch = %v, want a finite period (≤ 0 = default)", cfg.Epoch))
	}
	e := &Engine{net: net, cfg: cfg.withDefaults(), hooks: cfg.Obs}
	if s, ok := e.cfg.Allocator.(StationaryAllocator); ok {
		e.stationary = s.Stationary()
	}
	return e
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Finished returns every completed flow, in completion order. Group
// members never complete: they run until stopped.
func (e *Engine) Finished() []*Flow { return e.finished }

// CheckFlow, both flow-level engines' check, panics naming fn (the entry
// point) unless links is a non-empty path over net, u a utility,
// sizeBytes a payload (0 = unbounded) and at a finite time: a NaN
// arrival is never due, so Run would step forever, and a bad link or a
// nil utility would surface as a bare runtime panic in the allocator.
func CheckFlow(fn string, net *Network, links []int, u core.Utility, sizeBytes int64, at float64) {
	if len(links) == 0 {
		panic(fn + ": empty path")
	}
	n := net.Links()
	for _, l := range links {
		if l < 0 || l >= n {
			panic(fmt.Sprintf("%s: link %d in path %v of a %d-link network", fn, l, links, n))
		}
	}
	if u == nil {
		panic(fn + ": nil utility")
	}
	if sizeBytes < 0 {
		panic(fmt.Sprintf("%s: sizeBytes = %d, want ≥ 0 (0 = unbounded)", fn, sizeBytes))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("%s: at = %v, want a finite time", fn, at))
	}
}

// AddFlow schedules a flow over links, arriving at time at (seconds;
// at ≤ Now admits it on the next Step), with utility u and payload
// sizeBytes (0 = unbounded). It returns the Flow for inspection. A
// malformed argument — an empty path, a link id outside the network, a
// nil utility, a negative size, a NaN or infinite at — is a programmer
// error and panics naming the argument.
func (e *Engine) AddFlow(links []int, u core.Utility, sizeBytes int64, at float64) *Flow {
	CheckFlow("fluid: AddFlow", e.net, links, u, sizeBytes, at)
	return e.addFlow(links, u, sizeBytes, at)
}

func (e *Engine) addFlow(links []int, u core.Utility, sizeBytes int64, at float64) *Flow {
	f := e.flows.Acquire(links, u, sizeBytes, at)
	e.pending = append(e.pending, f)
	e.unsorted = true
	return f
}

// AddGroup schedules an unbounded multipath aggregate over the given
// paths (one member subflow per path), arriving as a unit at time at,
// with utility u of the group's TOTAL rate. It returns the Group for
// inspection; the member flows are in Group.Members, path order, and
// run until stopped. Arguments are validated as in AddFlow, every path
// included, before anything is created; a group needs at least one
// path. Only the XWI allocator plays groups: under any other AddGroup
// panics naming the allocator.
func (e *Engine) AddGroup(paths [][]int, u core.Utility, at float64) *Group {
	if len(paths) == 0 {
		panic("fluid: AddGroup: no paths")
	}
	for _, links := range paths {
		CheckFlow("fluid: AddGroup", e.net, links, u, 0, at)
	}
	if _, ok := e.cfg.Allocator.(*XWI); !ok {
		panic(fmt.Sprintf("fluid: AddGroup: allocator %T plays no groups, want *fluid.XWI", e.cfg.Allocator))
	}
	g := &Group{U: u}
	for _, links := range paths {
		g.AddMember(e.addFlow(links, u, 0, at))
	}
	return g
}

// Stop removes a flow immediately (for unbounded flows driven by an
// external event script); its Finish stays NaN. A flow not yet admitted
// never will be. Stopping a group member withdraws that one path; the
// group runs on the rest.
func (e *Engine) Stop(f *Flow) {
	if f.pos < 0 {
		if i := slices.Index(e.pending, f); i >= 0 {
			e.pending = slices.Delete(e.pending, i, i+1)
		}
		return
	}
	e.removeActive(f)
	f.Rate = 0
}

func (e *Engine) removeActive(f *Flow) {
	i := f.pos
	last := len(e.active) - 1
	e.active[i] = e.active[last]
	e.active[i].pos = i
	e.active = e.active[:last]
	f.pos = -1
	e.changed = true
}

func (e *Engine) admitDue() {
	if e.unsorted {
		sort.SliceStable(e.pending, func(i, j int) bool { return e.pending[i].Arrive < e.pending[j].Arrive })
		e.unsorted = false
	}
	n := 0
	for n < len(e.pending) && e.pending[n].Arrive <= e.now {
		f := e.pending[n]
		f.pos = len(e.active)
		e.active = append(e.active, f)
		n++
	}
	if n > 0 {
		e.changed = true
	}
	e.pending = e.pending[n:]
}

// Step advances one epoch. It reports whether any work remains
// (pending or active flows).
func (e *Engine) Step() bool {
	e.hooks.Profiler.Lap(obs.PhaseLoop)
	e.admitDue()
	e.hooks.Profiler.Lap(obs.PhaseAdmit)
	if len(e.active) == 0 && len(e.pending) == 0 {
		return false
	}
	dt := e.cfg.Epoch
	if len(e.active) > 0 {
		e.stats.Epochs++
		if e.changed || !e.stationary {
			if cap(e.rates) < len(e.active) {
				e.rates = make([]float64, 2*len(e.active))
			}
			rates := e.rates[:len(e.active)]
			e.cfg.Allocator.Allocate(e.net, e.active, rates)
			for i, f := range e.active {
				f.Rate = rates[i]
			}
			e.changed = false
			e.stats.Allocs++
			e.stats.SolvedFlows += len(e.active)
			e.stats.MaxSolve = max(e.stats.MaxSolve, len(e.active))
			e.hooks.Live.Solve(len(e.active))
		} else {
			e.stats.SkippedAllocs++
		}
		e.hooks.Profiler.Lap(obs.PhaseSolve)
		// Drain; stamp sub-epoch completions.
		firstDone := len(e.finished)
		for i := 0; i < len(e.active); {
			f := e.active[i]
			if f.SizeBytes == 0 || f.Rate <= 0 {
				i++
				continue
			}
			drain := f.Rate / 8 * dt
			if drain < f.Remaining {
				f.Remaining -= drain
				i++
				continue
			}
			f.Finish = e.now + f.Remaining*8/f.Rate
			f.Remaining = 0
			e.removeActive(f)
			e.finished = append(e.finished, f)
			// removeActive moved another flow into slot i; revisit it.
		}
		// The scan discovers same-epoch completions in slice order;
		// restore completion order within the epoch's batch.
		if batch := e.finished[firstDone:]; len(batch) > 1 {
			sort.SliceStable(batch, func(i, j int) bool { return batch[i].Finish < batch[j].Finish })
		}
		e.hooks.Profiler.Lap(obs.PhaseDrain)
	} else {
		// Idle gap: jump straight to the next arrival's epoch.
		gap := e.pending[0].Arrive - e.now
		if steps := math.Floor(gap / dt); steps > 1 {
			e.now += (steps - 1) * dt
		}
	}
	e.now += dt
	more := len(e.active) > 0 || len(e.pending) > 0
	e.publish(!more)
	return more
}

// publish is the live hook's one site: the engine's position and Stats
// value, on a scraper's request or (final) whenever a run ends.
func (e *Engine) publish(final bool) {
	if l := e.hooks.Live; l.Due(final) {
		l.Publish(e.now, len(e.active), len(e.finished), e.Stats())
	}
}

// Run advances epochs until no work remains or time reaches until
// (seconds; math.Inf(1) runs to completion — never terminates if an
// unbounded flow is active). A NaN until panics: no time compares with
// it, so the run would return at once with nothing done.
func (e *Engine) Run(until float64) {
	if math.IsNaN(until) {
		panic("fluid: Run: until = NaN, want a time or math.Inf(1)")
	}
	e.hooks.Profiler.Arm()
	for e.now < until && e.Step() {
	}
	e.publish(true)
}
