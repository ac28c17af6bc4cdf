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
	// PhaseResplice and PhaseWindow are retired slots: nothing laps
	// them, so they report 0 (completion moves are part of PhaseSolve).
	// They and their CSV columns stay because the repository benchmark
	// reads every phase by name.
	PhaseResplice
	// PhaseComplete is the completion side: scanning heap tops,
	// popping due events, and retiring finished flows.
	PhaseComplete
	// PhaseDrain is horizon payload materialization — realizing the
	// lazy drains when a finite deadline cuts a run short.
	PhaseDrain
	PhaseWindow
	// PhaseCount is the number of phases.
	PhaseCount
)

var phaseNames = [PhaseCount]string{"loop", "admit", "flood", "solve", "resplice", "complete", "drain", "window"}

// PhaseName returns the short lower-case name of a phase ("solve",
// "flood", ...).
func PhaseName(p Phase) string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseProfiler accumulates wall time per phase. The protocol is Arm
// once at the top of a run, then Lap(phase) at the end of each phase:
// Lap charges the time since the previous boundary to the given phase,
// so consecutive laps tile the run with no gaps and no double counting.
//
// Only a sample of windows — from one Lap(PhaseLoop) to the next, or
// from Arm — reads the clock: the first profileExact, then one in
// profilePeriod by a hash of the ordinal (which no periodic workload
// aliases with). A timed window reads it as it opens, so the untimed
// ones before it are known in total; Nanos splits that time as the
// timed windows' splits. Against a clock read at every lap of the same
// run: leapfct's full run (2 M windows) within 0.1 % in total and 0.9
// points per share, a 20 k-window run within 8 points.
//
// Arm and Lap are inlinable nil checks, callable unguarded on a nil
// *PhaseProfiler. A PhaseProfiler is single-threaded: it belongs to
// the engine's event loop.
type PhaseProfiler struct {
	last    int64
	timing  bool                 // the open window is timed
	windows int64                // windows Lap(PhaseLoop) opened
	untimed int64                // wall time of the windows not timed
	nanos   [2][PhaseCount]int64 // of the first profileExact windows, then of the sample's
}

// Short runs are timed whole: sampling starts after profileExact windows.
const profileExact, profilePeriod = 1 << 12, 16

// NewPhaseProfiler returns an armed profiler.
func NewPhaseProfiler() *PhaseProfiler {
	return &PhaseProfiler{last: Now(), timing: true}
}

// Arm restarts the boundary clock at now, so the next Lap charges
// only time spent after this call. Engines call it on Run entry;
// accumulated totals are preserved across Runs.
func (p *PhaseProfiler) Arm() {
	if p != nil {
		p.last, p.timing = Now(), true
	}
}

// Lap charges the time since the previous boundary (the last Arm or
// Lap) to ph and advances the boundary.
func (p *PhaseProfiler) Lap(ph Phase) {
	if p != nil {
		if p.timing || ph == PhaseLoop {
			p.lap(ph)
		}
	}
}

func (p *PhaseProfiler) lap(ph Phase) {
	clocked := p.timing
	if clocked {
		now := Now()
		p.nanos[min(p.windows/(profileExact+1), 1)][ph] += now - p.last
		p.last = now
	}
	if ph != PhaseLoop {
		return
	}
	// The next window; a timed one reads the clock after this
	// bookkeeping (its mispredicted branches are not its first phase's).
	n := p.windows
	p.windows++
	if p.timing = n < profileExact || splitmix64(uint64(n))%profilePeriod == 0; p.timing {
		now := Now()
		if !clocked {
			p.untimed += now - p.last
		}
		p.last = now
	}
}

// Nanos returns the per-phase wall time in nanoseconds: the timed
// windows', plus the untimed windows' split as the sample's splits.
func (p *PhaseProfiler) Nanos() (out [PhaseCount]int64) {
	if p == nil {
		return out
	}
	timed := int64(0)
	for _, n := range p.nanos[1] {
		timed += n
	}
	for ph, n := range p.nanos[1] {
		out[ph] = p.nanos[0][ph] + n + int64(float64(p.untimed)*float64(n)/float64(max(timed, 1)))
	}
	return out
}

// TotalNanos returns the sum of Nanos over all phases.
func (p *PhaseProfiler) TotalNanos() int64 {
	total := int64(0)
	for _, n := range p.Nanos() {
		total += n
	}
	return total
}
