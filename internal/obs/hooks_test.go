package obs

import "testing"

// TestDetachedHooksAreNoOps is the contract the engines' unguarded
// call sites rest on: every engine-facing method of every hook accepts
// a nil receiver — the zero Hooks — without panicking, without
// allocating, and (Tracer.Clock) without reading the clock.
func TestDetachedHooksAreNoOps(t *testing.T) {
	var h Hooks
	links := []int{0, 1}
	calls := []struct {
		name string
		fn   func()
	}{
		{"Profiler.Arm", func() { h.Profiler.Arm() }},
		{"Profiler.Lap", func() { h.Profiler.Lap(PhaseSolve) }},
		{"Profiler.Nanos", func() {
			if h.Profiler.Nanos() != [PhaseCount]int64{} {
				t.Error("nil profiler reports phase time")
			}
		}},
		{"Tracer.Clock", func() {
			if c := h.Tracer.Clock(); c != 0 {
				t.Errorf("nil tracer clock = %d, want 0 (no clock read)", c)
			}
		}},
		{"Tracer.Span", func() { h.Tracer.Span(1, 0, 3) }},
		{"Live.Due", func() {
			if h.Live.Due(true) {
				t.Error("nil live hook is due")
			}
		}},
		{"Live.Batch", func() { h.Live.Batch(3) }},
		{"Live.Solve", func() { h.Live.Solve(7) }},
		{"Live.Publish", func() { h.Live.Publish(1.5, 2, 8, nil) }},
		{"FlowTrace.Admit", func() { h.FlowTrace.Admit(0, 1<<20, 0, links) }},
		{"FlowTrace.Rate", func() { h.FlowTrace.Rate(0, 1, 5e9, -1, CauseSolve, 2, 1) }},
		{"FlowTrace.Complete", func() { h.FlowTrace.Complete(0, 2) }},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
				t.Errorf("%.0f allocs per call on a nil hook, want 0", allocs)
			}
		})
	}
}
