package obs

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestProfilerLapTiling(t *testing.T) {
	p := NewPhaseProfiler()
	// start must precede Arm: the phase sum's origin is Arm's internal
	// timestamp, so elapsed only bounds it from above if its own origin
	// comes first (the reverse order flakes by the Arm→Now gap).
	start := Now()
	p.Arm()
	time.Sleep(2 * time.Millisecond)
	p.Lap(PhaseSolve)
	time.Sleep(1 * time.Millisecond)
	p.Lap(PhaseFlood)
	elapsed := Now() - start

	nanos := p.Nanos()
	if nanos[PhaseSolve] < int64(1*time.Millisecond) {
		t.Errorf("solve = %v, want >= 1ms", time.Duration(nanos[PhaseSolve]))
	}
	if nanos[PhaseFlood] <= 0 {
		t.Errorf("flood = %d, want > 0", nanos[PhaseFlood])
	}
	// Consecutive laps tile the interval: the sum must equal the wall
	// time between Arm and the last Lap (within the final Now() call).
	total := p.TotalNanos()
	if total > elapsed {
		t.Errorf("phase sum %d exceeds elapsed %d", total, elapsed)
	}
	if float64(total) < 0.95*float64(elapsed) {
		t.Errorf("phase sum %d covers <95%% of elapsed %d", total, elapsed)
	}
	if nanos[PhaseLoop] != 0 || nanos[PhaseAdmit] != 0 {
		t.Errorf("phases never lapped were charged: %v", nanos)
	}
}

// TestProfilerSampledAccuracy drives 16,384 synthetic event-loop steps —
// four times the exact prefix, so three quarters of them are sampled —
// whose phases busy-wait for known relative costs, and holds the
// sampled profile to them: every phase's share within 3 points of its
// cost share, TotalNanos within 10 % of the wall time between Arm and
// the last lap, and nothing charged to a phase never lapped. A sampler
// that forgets to scale reports about 30 % of the wall time; one that
// never times PhaseLoop reports a loop share of 0 instead of 20 %.
//
// Each phase waits for a running deadline, not for its cost from when
// it starts: the clock reads of the Laps and of the wait itself then
// fall inside the next phase's wait instead of adding to it. Under the
// race detector those reads cost about a third of a unit per phase,
// which a wait timed from its own start would add to every phase alike,
// pulling the solve share from 40 % to 37 %.
//
// A wait that overran its deadline by more than a unit was preempted;
// the next one starts from where it ended, so the following phases do
// not shrink to catch up. The profile counts a preemption once in the
// exact prefix, sixteenfold in a sampled window and not at all in an
// untimed one, so a few milliseconds lost to another process in one
// sampled window move a share by more than 3 points. An attempt whose
// preemptions, so weighted, add up to more than 2 % of its wall time
// says nothing about the sampler and is retried without counting; three
// undisturbed attempts that miss fail the test, as does a tenth attempt
// that misses. A wrong sampler misses on every attempt.
func TestProfilerSampledAccuracy(t *testing.T) {
	const (
		steps = 1 << 14
		unit  = int64(time.Microsecond)
	)
	// Cost units per phase, in loop order; the loop's two units are
	// spent before each Lap(PhaseLoop), as a driver's work between steps.
	costs := []struct {
		ph    Phase
		units int64
	}{{PhaseLoop, 2}, {PhaseAdmit, 1}, {PhaseFlood, 1}, {PhaseSolve, 4}, {PhaseComplete, 2}}
	// weight is how often the profile counts time spent in window n,
	// the one the nth Lap(PhaseLoop) opens: the profiler's own choice of
	// timed windows.
	weight := func(n int) int64 {
		switch {
		case n < profileExact:
			return 1
		case splitmix64(uint64(n))%profilePeriod == 0:
			return profilePeriod
		}
		return 0
	}
	var errs []string
	for attempt, misses := 1, 0; attempt <= 10 && misses < 3; attempt++ {
		errs = errs[:0]
		p := NewPhaseProfiler()
		start := Now()
		p.Arm()
		deadline, w, preempted := Now(), int64(1), int64(0)
		spin := func(d int64) {
			for deadline += d; Now() < deadline; {
			}
			if now := Now(); now-deadline > unit {
				preempted += w * (now - deadline)
				deadline = now
			}
		}
		for i := 0; i < steps; i++ {
			for _, c := range costs {
				spin(c.units * unit)
				p.Lap(c.ph)
				if c.ph == PhaseLoop {
					w = weight(i)
				}
			}
		}
		wall := Now() - start
		nanos, total := p.Nanos(), p.TotalNanos()
		// Whatever the clock did, a phase never lapped is charged nothing.
		for _, ph := range []Phase{PhaseResplice, PhaseDrain, PhaseWindow} {
			if nanos[ph] != 0 {
				t.Fatalf("%s, never lapped, charged %d ns", PhaseName(ph), nanos[ph])
			}
		}
		if dev := float64(total)/float64(wall) - 1; dev < -0.1 || dev > 0.1 {
			errs = append(errs, fmt.Sprintf("TotalNanos %v is %+.1f%% off the wall time %v",
				time.Duration(total), 100*dev, time.Duration(wall)))
		}
		for _, c := range costs {
			got, want := 100*float64(nanos[c.ph])/float64(total), 10.0*float64(c.units)
			if math.Abs(got-want) > 3 {
				errs = append(errs, fmt.Sprintf("%s share %.1f%%, want %.0f%% ± 3", PhaseName(c.ph), got, want))
			}
		}
		if len(errs) == 0 {
			break
		}
		disturbed := 50*preempted > wall
		if !disturbed {
			misses++
		}
		t.Logf("attempt %d (preempted %.1f%% of the wall time, weighted; disturbed %v): %s",
			attempt, 100*float64(preempted)/float64(wall), disturbed, strings.Join(errs, "; "))
	}
	for _, e := range errs {
		t.Error(e)
	}
}

func TestProfilerArmExcludesSetup(t *testing.T) {
	p := NewPhaseProfiler()
	time.Sleep(2 * time.Millisecond) // setup time that must not be charged
	p.Arm()
	p.Lap(PhaseAdmit)
	if got := p.Nanos()[PhaseAdmit]; got > int64(time.Millisecond) {
		t.Errorf("admit charged %v of setup time", time.Duration(got))
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < PhaseCount; ph++ {
		name := PhaseName(ph)
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("phase %d has bad or duplicate name %q", ph, name)
		}
		seen[name] = true
	}
	if PhaseName(PhaseCount) != "unknown" {
		t.Error("out-of-range phase should name as unknown")
	}
}
