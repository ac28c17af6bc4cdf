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
	laps := p.Laps()
	if laps[PhaseSolve] != 1 || laps[PhaseFlood] != 1 || laps[PhaseLoop] != 0 {
		t.Errorf("laps = %v", laps)
	}
}

// TestProfilerSampledAccuracy drives 16,384 synthetic event-loop steps —
// four times the exact prefix, so three quarters of them are sampled —
// whose phases busy-wait for known relative costs, and holds the
// sampled profile to them: every phase's share within 3 points of its
// cost share, TotalNanos within 10 % of the wall time between Arm and
// the last lap, and exact lap counts. A sampler that forgets to scale
// reports about 30 % of the wall time; one that never times PhaseLoop
// reports a loop share of 0 instead of 20 %. A timed window the
// scheduler preempts weighs sixteenfold in the shares, so a failed
// attempt is retried twice; a wrong sampler fails every attempt.
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
	spin := func(d int64) {
		for t0 := Now(); Now()-t0 < d; {
		}
	}
	var errs []string
	for attempt := 0; attempt < 3; attempt++ {
		errs = errs[:0]
		p := NewPhaseProfiler()
		start := Now()
		p.Arm()
		for i := 0; i < steps; i++ {
			for _, c := range costs {
				spin(c.units * unit)
				p.Lap(c.ph)
			}
		}
		wall := Now() - start
		// Lap counts are exact whatever the clock did.
		laps := p.Laps()
		for ph := Phase(0); ph < PhaseCount; ph++ {
			want := int64(0)
			for _, c := range costs {
				if c.ph == ph {
					want = steps
				}
			}
			if laps[ph] != want {
				t.Fatalf("%s laps = %d, want %d", PhaseName(ph), laps[ph], want)
			}
		}
		nanos, total := p.Nanos(), p.TotalNanos()
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
		t.Logf("attempt %d: %s", attempt+1, strings.Join(errs, "; "))
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

func TestProfilerReset(t *testing.T) {
	p := NewPhaseProfiler()
	p.Lap(PhaseSolve)
	p.Reset()
	if p.TotalNanos() != 0 {
		t.Errorf("total after reset = %d, want 0", p.TotalNanos())
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
