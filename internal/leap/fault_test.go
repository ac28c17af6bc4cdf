package leap

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
)

// runDeadDense plays the dense random schedule with links dead killed —
// either statically (capacity zero from construction, no fault events)
// or via FailLink at t=0 with no recovery — and returns the engine and
// flows after running to completion, invariants checked along the way.
func runDeadDense(seed uint64, dead []int, static bool) (*Engine, []*fluid.Flow) {
	caps := denseCaps()
	if static {
		for _, l := range dead {
			caps[l] = 0
		}
	}
	e := NewEngine(fluid.NewNetwork(caps), Config{})
	if !static {
		for _, l := range dead {
			e.FailLink(l, 0)
		}
	}
	fs := buildDenseSchedule(e, seed)
	runChecked(e, math.Inf(1))
	return e, fs
}

// TestFaultMatchesStaticDegraded is the fault-injection property test:
// a failure at t=0 that never recovers must be indistinguishable from
// having built the topology without the link — every flow finishes (or stays stranded) at bitwise-identical times to a fresh
// run on the statically degraded capacity vector. Any disagreement is
// a fault-path bug (a missed re-solve, a wrong retirement order, a
// stranded flow leaking rate), not float noise.
func TestFaultMatchesStaticDegraded(t *testing.T) {
	dead := []int{0, 5} // one link in each bank of the dense schedule
	for seed := uint64(1); seed <= 3; seed++ {
		se, sf := runDeadDense(seed, dead, true)
		fe, ff := runDeadDense(seed, dead, false)
		assertSameCompletions(t, "fault-vs-static", seed, sf, ff)
		ss, fs := se.Stats(), fe.Stats()
		if fs.Stranded != ss.Stranded || fs.Resumed != 0 {
			t.Errorf("seed %d: stranded %d/%d resumed %d, want static %d/0",
				seed, fs.Stranded, ss.Stranded, fs.Resumed, ss.Stranded)
		}
		if fs.Faults != len(dead) || fs.LinksDown != len(dead) {
			t.Errorf("seed %d: faults %d linksDown %d, want %d/%d",
				seed, fs.Faults, fs.LinksDown, len(dead), len(dead))
		}
		if ss.Faults != 0 || ss.LinksDown != 0 {
			t.Errorf("seed %d: static run recorded faults: %+v", seed, ss)
		}
	}
}

// TestStrandedFlowResumesExactly pins the strand/resume arithmetic on
// one flow: a mid-flow failure freezes the payload at rate zero, the
// recovery resumes it, and the finish time is the ideal FCT plus
// exactly the downtime. The degradation accounting must match the
// schedule analytically: stranded time equals the downtime, capacity
// lost equals capacity × downtime.
func TestStrandedFlowResumesExactly(t *testing.T) {
	const cap0 = 10e9
	const failT, recoverT = 200e-6, 500e-6
	e := NewEngine(fluid.NewNetwork([]float64{cap0}), Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.FailLink(0, failT)
	e.RecoverLink(0, recoverT)
	e.Run(math.Inf(1))

	ideal := float64(1<<20) * 8 / cap0
	want := ideal + (recoverT - failT)
	if !f.Done() {
		t.Fatalf("flow never resumed: finish %v remaining %v", f.Finish, f.Remaining)
	}
	if math.Abs(f.Finish-want) > 1e-12 {
		t.Errorf("finish %v, want ideal+downtime %v", f.Finish, want)
	}
	s := e.Stats()
	if s.Faults != 2 || s.Stranded != 1 || s.Resumed != 1 || s.LinksDown != 0 {
		t.Errorf("fault stats: %+v, want 2 faults, 1 stranded, 1 resumed, 0 down", s)
	}
	if got, want := s.StrandedSec, recoverT-failT; math.Abs(got-want) > 1e-15 {
		t.Errorf("StrandedSec %v, want downtime %v", got, want)
	}
	if got, want := s.CapacityLostBitSec, cap0*(recoverT-failT); math.Abs(got-want) > 1 {
		t.Errorf("CapacityLostBitSec %v, want cap·downtime %v", got, want)
	}
}

// TestNestedAndSpuriousFaults: recovering a healthy link is a counted
// no-op, and failures nest — a link failed twice stays dead through
// the first recovery and restores on the second, with the downtime
// integral spanning first-fail to last-recover.
func TestNestedAndSpuriousFaults(t *testing.T) {
	const cap0 = 10e9
	e := NewEngine(fluid.NewNetwork([]float64{cap0}), Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
	e.RecoverLink(0, 50e-6) // spurious: link is healthy
	e.FailLink(0, 200e-6)
	e.FailLink(0, 250e-6)    // nests: no further change
	e.RecoverLink(0, 300e-6) // unwinds one level: still dead
	e.RecoverLink(0, 600e-6) // restores
	e.Run(math.Inf(1))

	ideal := float64(1<<20) * 8 / cap0
	want := ideal + (600e-6 - 200e-6)
	if !f.Done() || math.Abs(f.Finish-want) > 1e-12 {
		t.Errorf("finish %v (done=%v), want %v", f.Finish, f.Done(), want)
	}
	s := e.Stats()
	if s.Faults != 5 || s.Stranded != 1 || s.Resumed != 1 || s.LinksDown != 0 {
		t.Errorf("fault stats: %+v, want 5 faults, 1 stranded, 1 resumed, 0 down", s)
	}
	if got, want := s.CapacityLostBitSec, cap0*(600e-6-200e-6); math.Abs(got-want) > 1 {
		t.Errorf("CapacityLostBitSec %v, want %v (first fail to last recover)", got, want)
	}
}

// TestSameInstantFailRecoverCancels: a fail and recover retiring at
// the same instant (failures order before recoveries) net to no
// capacity change, no stranding, and zero accrued downtime — but both
// count as applied faults and the finish time is untouched bitwise.
func TestSameInstantFailRecoverCancels(t *testing.T) {
	run := func(withFault bool) *fluid.Flow {
		e := NewEngine(fluid.NewNetwork([]float64{10e9}), Config{})
		f := e.AddFlow([]int{0}, core.ProportionalFair(), 1<<20, 0)
		if withFault {
			e.FailLink(0, 300e-6)
			e.RecoverLink(0, 300e-6)
		}
		e.Run(math.Inf(1))
		s := e.Stats()
		if withFault {
			if s.Faults != 2 || s.Stranded != 0 || s.Resumed != 0 || s.LinksDown != 0 ||
				s.StrandedSec != 0 || s.CapacityLostBitSec != 0 {
				t.Errorf("same-instant pair accrued degradation: %+v", s)
			}
		}
		return f
	}
	clean, faulted := run(false), run(true)
	if math.Float64bits(clean.Finish) != math.Float64bits(faulted.Finish) {
		t.Errorf("same-instant fail+recover moved the finish: %v != %v",
			faulted.Finish, clean.Finish)
	}
}

// TestFaultLostServiceIdentity pins the degradation accounting against
// the flow tracer's invariant: for every flow admitted on a healthy
// path, the per-link lost-service integrals — stranded time included,
// attributed in full to the failed bottleneck — sum to FCT − IdealFCT.
// A flow admitted mid-failure onto the dead path is not traced (it has
// no finite ideal FCT) but still strands, resumes, and completes.
func TestFaultLostServiceIdentity(t *testing.T) {
	const failT, recoverT = 500e-6, 1500e-6
	ft := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 1})
	e := NewEngine(fluid.NewNetwork([]float64{10e9, 10e9}), Config{Obs: obs.Hooks{FlowTrace: ft}})
	a := e.AddFlow([]int{0}, core.ProportionalFair(), 4<<20, 0)
	b := e.AddFlow([]int{0, 1}, core.ProportionalFair(), 4<<20, 0)
	// Admitted while link 1 is down: stranded from birth, untraced.
	c := e.AddFlow([]int{1}, core.ProportionalFair(), 1<<20, 1e-3)
	e.FailLink(1, failT)
	e.RecoverLink(1, recoverT)
	e.Run(math.Inf(1))

	for _, f := range []*fluid.Flow{a, b, c} {
		if !f.Done() {
			t.Fatalf("flow %d unfinished: remaining %v", f.ID, f.Remaining)
		}
	}
	s := e.Stats()
	if s.Stranded != 2 || s.Resumed != 2 {
		t.Errorf("stranded/resumed = %d/%d, want 2/2 (b and c)", s.Stranded, s.Resumed)
	}
	if sum := ft.Summary(); sum.Tracked != 2 {
		t.Errorf("tracer tracked %d flows, want 2 (dead-path admit untraced)", sum.Tracked)
	}
	recs := ft.Records()
	if len(recs) != 2 {
		t.Fatalf("tracer kept %d records, want 2", len(recs))
	}
	var bLost float64
	for _, r := range recs {
		gap := r.FCT - r.IdealFCT
		if diff := math.Abs(r.TotalLost() - gap); diff > 1e-6 {
			t.Errorf("flow %d: lost-service identity broken: ΣLost %v vs FCT−Ideal %v (Δ %v)",
				r.ID, r.TotalLost(), gap, diff)
		}
		if r.ID == b.ID {
			bLost = r.TotalLost()
		}
	}
	// b sat stranded for the full downtime, so its lost service must
	// carry at least that much.
	if down := recoverT - failT; bLost < down {
		t.Errorf("stranded flow lost %v s of service, want ≥ downtime %v", bLost, down)
	}
}

// buildFuzzFaults decodes the same byte stream buildFuzzSchedule reads
// into an interleaved fault schedule on the six-link fuzz network:
// three bytes per entry select the time delta, the link, and the fault
// shape — a permanent failure, a fail+recover pair, a same-instant
// fail+recover (which must cancel), a bare recovery (spurious or
// unwinding an earlier nest), or nothing. Every byte stream is valid.
func buildFuzzFaults(e scheduler, data []byte) {
	const links = 6
	at := 0.0
	for i := 0; i+2 < len(data); i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		at += float64(b0%8) * 25e-6
		l := int(b1) % links
		switch {
		case b2&0xc0 == 0xc0:
			e.FailLink(l, at)
			e.RecoverLink(l, at)
		case b2&0x80 != 0:
			e.FailLink(l, at)
			if b2&0x3f != 0 {
				e.RecoverLink(l, at+float64(b2&0x3f)*25e-6)
			}
		case b2&0x40 != 0:
			e.RecoverLink(l, at)
		}
	}
}
