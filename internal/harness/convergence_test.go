package harness

import (
	"testing"

	"numfabric/internal/sim"
)

// tinySemiDynamic is small enough for unit tests: 3 events on the
// scaled fabric with ~20 active flows.
func tinySemiDynamic(s Scheme) SemiDynamicConfig {
	cfg := DefaultSemiDynamic(s)
	cfg.Paths = 60
	cfg.FlowsPerEvent = 8
	cfg.MinActive = 16
	cfg.MaxActive = 28
	cfg.Events = 3
	cfg.Sustain = 2 * sim.Millisecond
	cfg.EventTimeout = 30 * sim.Millisecond
	return cfg
}

func TestSemiDynamicNUMFabricConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := RunSemiDynamicWith(EnginePacket, tinySemiDynamic(NUMFabric))
	if res.Events != 3 {
		t.Fatalf("ran %d events, want 3", res.Events)
	}
	if len(res.ConvergenceTimes) < 2 {
		t.Fatalf("only %d/%d events converged (unconverged=%d)",
			len(res.ConvergenceTimes), res.Events, res.Unconverged)
	}
	med := res.Median()
	if med < 0 || med > 0.02 {
		t.Errorf("median convergence = %.4fs, want < 20ms", med)
	}
}

func TestSemiDynamicDGDConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := RunSemiDynamicWith(EnginePacket, tinySemiDynamic(DGD))
	if len(res.ConvergenceTimes) < 2 {
		t.Fatalf("only %d/%d events converged", len(res.ConvergenceTimes), res.Events)
	}
}

func TestSemiDynamicDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinySemiDynamic(NUMFabric)
	cfg.Events = 2
	a := RunSemiDynamicWith(EnginePacket, cfg)
	b := RunSemiDynamicWith(EnginePacket, cfg)
	if len(a.ConvergenceTimes) != len(b.ConvergenceTimes) {
		t.Fatalf("different event outcomes across identical runs")
	}
	for i := range a.ConvergenceTimes {
		if a.ConvergenceTimes[i] != b.ConvergenceTimes[i] {
			t.Errorf("event %d: %v vs %v", i, a.ConvergenceTimes[i], b.ConvergenceTimes[i])
		}
	}
}
