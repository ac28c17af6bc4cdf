package refsim

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
)

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want)) }

// TestClosedForms holds the referee itself to schedules whose finish
// times follow by hand, so a bug in it fails here and not as a
// mysterious disagreement with the engines it referees.
func TestClosedForms(t *testing.T) {
	u := core.ProportionalFair()
	const mb = 1_250_000 // 1 ms of a 10G link

	// Two flows overlapping on one link: A alone, both at 5G, A alone.
	s := New(fluid.NewNetwork([]float64{10e9}), fluid.NewWaterFill())
	a := s.AddFlow([]int{0}, u, 8*mb, 0)
	b := s.AddFlow([]int{0}, u, 2*mb, 2e-3)
	s.Run(math.Inf(1))
	if !near(b.Finish, 6e-3) || !near(a.Finish, 10e-3) {
		t.Errorf("two-flow overlap: finishes %v and %v, want 10 ms and 6 ms", a.Finish, b.Finish)
	}

	// A nested failure strands the flow from 1 ms until the second
	// recovery at 4 ms; the spurious recovery before it changes nothing.
	s = New(fluid.NewNetwork([]float64{10e9}), fluid.NewWaterFill())
	a = s.AddFlow([]int{0}, u, 2*mb, 0)
	s.RecoverLink(0, 0.5e-3)
	s.FailLink(0, 1e-3)
	s.FailLink(0, 2e-3)
	s.RecoverLink(0, 3e-3)
	s.RecoverLink(0, 4e-3)
	s.Run(math.Inf(1))
	if !near(a.Finish, 5e-3) || s.LinksDown != 0 || !near(s.CapacityLostBitSec, 10e9*3e-3) {
		t.Errorf("nested fault: finish %v, %d links down, %v bit·s lost; want 5 ms, 0, 3e7",
			a.Finish, s.LinksDown, s.CapacityLostBitSec)
	}

	// The horizon stops the clock with the payload part-drained; the
	// unbounded flow never finishes.
	s = New(fluid.NewNetwork([]float64{10e9, 10e9}), fluid.NewWaterFill())
	a = s.AddFlow([]int{0}, u, 2*mb, 0)
	f := s.AddFlow([]int{1}, u, 0, 0)
	s.Run(1e-3)
	if !near(a.Remaining, mb) || a.Done() {
		t.Errorf("flow at the 1 ms horizon: %v bytes left, done %v; want half of 2 MB", a.Remaining, a.Done())
	}
	s.Run(math.Inf(1))
	if !near(a.Finish, 2e-3) || f.Done() || f.Rate != 10e9 {
		t.Errorf("finish %v, unbounded flow done %v at rate %v; want 2 ms, false, 10G", a.Finish, f.Done(), f.Rate)
	}
}
