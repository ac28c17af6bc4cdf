package transport

import (
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/sim"
)

func TestSRPTNearlyDoneFlowOvertakes(t *testing.T) {
	// Flow A: 10 MB, started early (mostly transferred). Flow B: 2 MB,
	// starts when A has ~1 MB left. Under static Shortest-Flow-First,
	// B (smaller total size) would win; under SRPT, A (smaller
	// REMAINING size) should finish first.
	r := newRig(stfqFactory)
	params := DefaultNUMFabric().Slowed(2)
	fa := r.addFlow("a", 10<<20)
	fb := r.addFlowTo("b", fa.Path[1], 2<<20)
	for _, port := range r.net.Links {
		NewXWIAgent(port, params)
	}
	sa := NewNUMFabricSender(fa, core.SRPTMin(10<<20, 0.125), params, testRTT)
	sb := NewNUMFabricSender(fb, core.SRPTMin(2<<20, 0.125), params, testRTT)
	AttachSRPT(sa)
	AttachSRPT(sb)

	r.eng.Schedule(0, fa.Start)
	// Start B when A has ~1MB remaining (10MB at 10G ≈ 8.6ms; 9MB in
	// ≈ 7.8ms).
	r.eng.Schedule(sim.Time(7800*sim.Microsecond), fb.Start)
	r.eng.Run(sim.Time(60 * sim.Millisecond))

	if !fa.Done || !fb.Done {
		t.Fatalf("flows incomplete: a=%v b=%v", fa.Done, fb.Done)
	}
	if fa.EndTime > fb.EndTime {
		t.Errorf("SRPT violated: A (1MB remaining) finished at %v, after B (2MB) at %v",
			fa.EndTime, fb.EndTime)
	}
}

func TestSRPTUtilityRefreshes(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric()
	f := r.addFlow("a", 5<<20)
	for _, port := range r.net.Links {
		NewXWIAgent(port, params)
	}
	s := NewNUMFabricSender(f, core.SRPTMin(5<<20, 0.125), params, testRTT)
	AttachSRPT(s)
	u0 := s.u
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(2 * sim.Millisecond))
	u1 := s.u
	// As the flow drains, the SRPT weight grows: at a common price the
	// refreshed utility must demand a higher rate.
	if u1.InverseMarginal(1e-3) <= u0.InverseMarginal(1e-3) {
		t.Error("utility did not gain priority as the flow drained")
	}
}

func TestDeadlinePriorityGrows(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric()
	f := r.addFlow("a", 50<<20)
	for _, port := range r.net.Links {
		NewXWIAgent(port, params)
	}
	s := NewNUMFabricSender(f, core.Deadline(0.01, 0.125), params, testRTT)
	AttachDeadline(s, sim.Time(10*sim.Millisecond))
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(1 * sim.Millisecond))
	u1 := s.u
	r.eng.Run(sim.Time(8 * sim.Millisecond))
	u2 := s.u
	if u2.InverseMarginal(1e-3) <= u1.InverseMarginal(1e-3) {
		t.Error("deadline utility did not sharpen as the deadline approached")
	}
}

// TestRefreshStopsWithItsFlow: an SRPT flow and a deadline flow on a
// rig with no link agents finish within a millisecond, and their
// utility refreshers stop with them, so Run drains the event set and
// returns long before its 1 s horizon.
func TestRefreshStopsWithItsFlow(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric()
	const size = 200_000
	fa := r.addFlow("a", size)
	fb := r.addFlow("b", size)
	AttachSRPT(NewNUMFabricSender(fa, core.SRPTMin(size, core.FCTEpsilon), params, testRTT))
	AttachDeadline(NewNUMFabricSender(fb, core.Deadline(0.01, core.FCTEpsilon), params, testRTT), sim.Time(10*sim.Millisecond))
	r.eng.Schedule(0, fa.Start)
	r.eng.Schedule(0, fb.Start)
	const horizon = sim.Time(sim.Second)
	end := r.eng.Run(horizon)
	if !fa.Done || !fb.Done {
		t.Fatalf("flows incomplete: srpt=%v deadline=%v", fa.Done, fb.Done)
	}
	if end >= horizon {
		t.Errorf("Run returned at %v: a refresher outlived its flow (flows done at %v and %v)", end, fa.EndTime, fb.EndTime)
	}
}
