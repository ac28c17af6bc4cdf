package obs

import (
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
