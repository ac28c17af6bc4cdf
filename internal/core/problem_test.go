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
	// Each flow is the one member of its own group.
	for _, f := range []int{f0, f1} {
		if g := p.Flows[f].Group; !reflect.DeepEqual(p.Groups[g].Flows, []int{f}) {
			t.Errorf("flow %d: group %d has members %v", f, g, p.Groups[g].Flows)
		}
	}
}

func TestProblemAggregate(t *testing.T) {
	p := NewProblem([]float64{10e9, 10e9})
	g := p.AddAggregate(ProportionalFair())
	s0 := p.AddSubflow(g, []int{0})
	s1 := p.AddSubflow(g, []int{1})
	if p.Flows[s0].Group != g || p.Flows[s1].Group != g {
		t.Error("subflows not in aggregate group")
	}
	if !reflect.DeepEqual(p.Groups[g].Flows, []int{s0, s1}) {
		t.Errorf("aggregate members %v, want [%d %d]", p.Groups[g].Flows, s0, s1)
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
	}
	caps := []float64{1, 2, 3, 4}
	if n := testing.AllocsPerRun(20, func() { p.Reset(caps); build(p, 9) }); n != 0 {
		t.Errorf("Reset + rebuild allocates %v times, want 0", n)
	}
}
