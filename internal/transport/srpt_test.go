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
	params := DefaultNUMFabric(testRTT).Slowed(2)
	fa := r.addFlow("a", 10<<20)
	fb := r.addFlowTo("b", fa.Path[1], 2<<20)
	for _, port := range r.net.Links {
		NewXWIAgent(r.net, port, params)
	}
	sa := NewNUMFabricSender(r.net, fa, core.SRPTMin(10<<20, 0.125), params)
	sb := NewNUMFabricSender(r.net, fb, core.SRPTMin(2<<20, 0.125), params)
	AttachSRPT(r.net, sa, 50*sim.Microsecond, 0.125)
	AttachSRPT(r.net, sb, 50*sim.Microsecond, 0.125)

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
	params := DefaultNUMFabric(testRTT)
	f := r.addFlow("a", 5<<20)
	for _, port := range r.net.Links {
		NewXWIAgent(r.net, port, params)
	}
	s := NewNUMFabricSender(r.net, f, core.SRPTMin(5<<20, 0.125), params)
	AttachSRPT(r.net, s, 100*sim.Microsecond, 0.125)
	u0 := s.Utility()
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(2 * sim.Millisecond))
	u1 := s.Utility()
	// As the flow drains, the SRPT weight grows: at a common price the
	// refreshed utility must demand a higher rate.
	if u1.InverseMarginal(1e-3) <= u0.InverseMarginal(1e-3) {
		t.Error("utility did not gain priority as the flow drained")
	}
}

func TestDeadlinePriorityGrows(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric(testRTT)
	f := r.addFlow("a", 50<<20)
	for _, port := range r.net.Links {
		NewXWIAgent(r.net, port, params)
	}
	s := NewNUMFabricSender(r.net, f, core.Deadline(0.01, 0.125), params)
	AttachDeadline(r.net, s, sim.Time(10*sim.Millisecond), 100*sim.Microsecond, 0.125)
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(1 * sim.Millisecond))
	u1 := s.Utility()
	r.eng.Run(sim.Time(8 * sim.Millisecond))
	u2 := s.Utility()
	if u2.InverseMarginal(1e-3) <= u1.InverseMarginal(1e-3) {
		t.Error("deadline utility did not sharpen as the deadline approached")
	}
}

func TestSRPTCancelStopsRefresh(t *testing.T) {
	r := newRig(stfqFactory)
	params := DefaultNUMFabric(testRTT)
	f := r.addFlow("a", 5<<20)
	s := NewNUMFabricSender(r.net, f, core.SRPTMin(5<<20, 0.125), params)
	cancel := AttachSRPT(r.net, s, 100*sim.Microsecond, 0.125)
	cancel()
	u0 := s.Utility()
	r.eng.Schedule(0, f.Start)
	r.eng.Run(sim.Time(2 * sim.Millisecond))
	if s.Utility() != u0 {
		t.Error("cancelled refresher still updated the utility")
	}
}
