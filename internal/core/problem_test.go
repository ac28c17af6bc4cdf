package core

import (
	"reflect"
	"testing"
)

func TestProblemBuildAndValidate(t *testing.T) {
	p := NewProblem([]float64{10e9, 10e9})
	f0 := p.AddFlow([]int{0}, ProportionalFair())
	f1 := p.AddFlow([]int{0, 1}, ProportionalFair())
	if f0 != 0 || f1 != 1 {
		t.Fatalf("flow ids = %d,%d", f0, f1)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProblemAggregate(t *testing.T) {
	p := NewProblem([]float64{10e9, 10e9})
	g := p.AddAggregate(ProportionalFair())
	s0 := p.AddSubflow(g, []int{0})
	s1 := p.AddSubflow(g, []int{1})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Flows[s0].Group != g || p.Flows[s1].Group != g {
		t.Error("subflows not in aggregate group")
	}
	// Aggregate utility applies to the sum: splitting rate across
	// subflows must not change the objective.
	u1 := p.TotalUtility([]float64{4e9, 4e9})
	u2 := p.TotalUtility([]float64{8e9, 0})
	if !almostEq(u1, u2, 1e-12) {
		t.Errorf("aggregate utility depends on split: %v vs %v", u1, u2)
	}
}

// TestProblemReset: a problem rebuilt after Reset equals one built
// fresh — no flow, group member or link of the previous build shows
// through, though the arrays are reused — and rebuilding one no larger
// than its predecessor allocates nothing.
func TestProblemReset(t *testing.T) {
	us := make([]Utility, 9) // boxed once: the conversion would allocate
	for i := range us {
		us[i] = NewAlphaFair(float64(1 + i))
	}
	build := func(p *Problem, n int) {
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				g := p.AddAggregate(us[i])
				p.AddSubflow(g, []int{i % 4, (i + 1) % 4})
				p.AddSubflow(g, []int{(i + 2) % 4})
				continue
			}
			p.AddFlow([]int{i % 4}, us[i])
		}
	}
	p := NewProblem([]float64{1, 2, 3, 4})
	build(p, 9)
	for _, n := range []int{4, 9, 1} {
		caps := []float64{float64(n), 5, 6, 7}
		want := NewProblem(caps)
		build(want, n)
		p.Reset(caps)
		build(p, n)
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("n=%d: rebuilt %+v, want %+v", n, p, want)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	caps := []float64{1, 2, 3, 4}
	if n := testing.AllocsPerRun(20, func() { p.Reset(caps); build(p, 9) }); n != 0 {
		t.Errorf("Reset + rebuild allocates %v times, want 0", n)
	}
}

func TestProblemValidateCatchesErrors(t *testing.T) {
	p := NewProblem([]float64{10e9})
	p.AddFlow([]int{0}, ProportionalFair())
	p.Flows[0].Links = []int{5}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range link not caught")
	}

	p2 := NewProblem([]float64{-1})
	p2.AddFlow([]int{0}, ProportionalFair())
	if err := p2.Validate(); err == nil {
		t.Error("negative capacity not caught")
	}

	p3 := NewProblem([]float64{10e9})
	p3.AddAggregate(ProportionalFair()) // empty group
	if err := p3.Validate(); err == nil {
		t.Error("empty group not caught")
	}

	p4 := NewProblem([]float64{10e9})
	p4.AddFlow(nil, ProportionalFair())
	if err := p4.Validate(); err == nil {
		t.Error("empty path not caught")
	}
}

func TestIsFeasible(t *testing.T) {
	p := NewProblem([]float64{10e9})
	p.AddFlow([]int{0}, ProportionalFair())
	p.AddFlow([]int{0}, ProportionalFair())
	if !p.IsFeasible([]float64{5e9, 5e9}, 1e-9) {
		t.Error("feasible point rejected")
	}
	if p.IsFeasible([]float64{8e9, 5e9}, 1e-9) {
		t.Error("infeasible point accepted")
	}
	if p.IsFeasible([]float64{-1, 1}, 1e-9) {
		t.Error("negative rate accepted")
	}
	if p.IsFeasible([]float64{1}, 1e-9) {
		t.Error("wrong length accepted")
	}
}
