package obs

// Phase identifies one segment of an engine's event loop. The phases
// are chosen so that consecutive Lap calls tile the whole loop: the
// sum over phases equals the wall time spent inside Run, which is
// what lets the repository benchmark report Run minus the phases as
// the engine's unattributed self time.
type Phase uint8

const (
	// PhaseLoop is the event-loop bookkeeping between instrumented
	// sections: the step dispatch, next-event time selection, and the
	// Run loop itself — or, for a driver that calls Step itself, whatever
	// it does between Steps (the harness draws, routes and admits the
	// next arrivals there).
	PhaseLoop Phase = iota
	// PhaseAdmit is arrival admission: popping due arrivals and
	// seeding (or fast-pathing) them into the active set.
	PhaseAdmit
	// PhaseFlood is the component flood: partitioning a batch's
	// touched flows into disjoint link-sharing components.
	PhaseFlood
	// PhaseSolve is settling a batch's components: the allocator
	// solves, the rate installs, and moving or cancelling the completion
	// of every owner whose rate changed.
	PhaseSolve
	// PhaseResplice is a retired slot: nothing laps it, so it reports 0
	// (the completion moves it timed are part of PhaseSolve). Like
	// PhaseWindow it stays, with the resplice_ns CSV column, because the
	// repository benchmark reads every phase by name.
	PhaseResplice
	// PhaseComplete is the completion side: scanning heap tops,
	// popping due events, and retiring finished flows.
	PhaseComplete
	// PhaseDrain is horizon payload materialization — realizing the
	// lazy drains when a finite deadline cuts a run short.
	PhaseDrain
	// PhaseWindow is a retired slot: nothing laps it, so it reports 0.
	// It (and the window_ns CSV column) stay because the repository
	// benchmark reads every phase by name.
	PhaseWindow
	// PhaseCount is the number of phases.
	PhaseCount
)

var phaseNames = [PhaseCount]string{
	"loop", "admit", "flood", "solve", "resplice", "complete", "drain",
	"window",
}

// PhaseName returns the short lower-case name of a phase ("solve",
// "flood", ...).
func PhaseName(p Phase) string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseProfiler accumulates wall time per phase with one monotonic
// clock read per phase boundary. The protocol is Arm once at the top
// of a run, then Lap(phase) at the end of each phase: Lap charges the
// time since the previous boundary to the given phase, so consecutive
// laps tile the run with no gaps and no double counting.
//
// Arm and Lap are inlinable nil checks, callable unguarded on a nil
// *PhaseProfiler. A PhaseProfiler is single-threaded: it belongs to
// the engine's event loop.
type PhaseProfiler struct {
	last  int64
	nanos [PhaseCount]int64
	laps  [PhaseCount]int64
}

// NewPhaseProfiler returns an armed profiler.
func NewPhaseProfiler() *PhaseProfiler {
	return &PhaseProfiler{last: Now()}
}

// Arm restarts the boundary clock at now, so the next Lap charges
// only time spent after this call. Engines call it on Run entry;
// accumulated totals are preserved across Runs.
func (p *PhaseProfiler) Arm() {
	if p != nil {
		p.last = Now()
	}
}

// Lap charges the time since the previous boundary (the last Arm or
// Lap) to ph and advances the boundary.
func (p *PhaseProfiler) Lap(ph Phase) {
	if p != nil {
		p.lap(ph)
	}
}

func (p *PhaseProfiler) lap(ph Phase) {
	now := Now()
	p.nanos[ph] += now - p.last
	p.laps[ph]++
	p.last = now
}

// Nanos returns the accumulated per-phase wall time in nanoseconds.
func (p *PhaseProfiler) Nanos() [PhaseCount]int64 {
	if p == nil {
		return [PhaseCount]int64{}
	}
	return p.nanos
}

// Laps returns how many laps each phase accumulated.
func (p *PhaseProfiler) Laps() [PhaseCount]int64 {
	if p == nil {
		return [PhaseCount]int64{}
	}
	return p.laps
}

// TotalNanos returns the sum over all phases.
func (p *PhaseProfiler) TotalNanos() int64 {
	if p == nil {
		return 0
	}
	total := int64(0)
	for _, n := range p.nanos {
		total += n
	}
	return total
}

// Reset clears the accumulated totals and re-arms the clock.
func (p *PhaseProfiler) Reset() {
	if p == nil {
		return
	}
	*p = PhaseProfiler{last: Now()}
}
