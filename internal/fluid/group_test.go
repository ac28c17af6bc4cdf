package fluid

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/oracle"
)

// groupCase is one multipath resource-pooling instance: groupPaths
// holds one path set per aggregate, singles the competing single-path
// flows (all proportional-fair).
type groupCase struct {
	name       string
	capacity   []float64
	groupPaths [][][]int
	singles    [][]int
}

func groupCases() []groupCase {
	tenG := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 10e9
		}
		return out
	}
	return []groupCase{
		// A group pooling two idle parallel links: the aggregate should
		// reach the combined 20G.
		{"pool2/alone", tenG(2), [][][]int{{{0}, {1}}}, nil},
		// A single flow competes on link 0: the pooled optimum moves
		// the group entirely onto link 1 (group 10G, single 10G).
		{"pool2/competitor", tenG(2), [][][]int{{{0}, {1}}}, [][]int{{0}}},
		// Singles on both links: the aggregate behaves like one flow
		// (each of the three "users" gets 20/3 G).
		{"pool2/symmetric", tenG(2), [][][]int{{{0}, {1}}}, [][]int{{0}, {1}}},
		// Two groups crossing over two links, plus a single.
		{"pool2x2", tenG(2), [][][]int{{{0}, {1}}, {{0}, {1}}}, [][]int{{1}}},
		// Four parallel paths, one loaded by two singles.
		{"pool4/skewed", tenG(4), [][][]int{{{0}, {1}, {2}, {3}}}, [][]int{{0}, {0}}},
	}
}

// oracleGroupOptimum solves the case's exact multipath NUM problem and
// returns the optimal group totals and single-flow rates.
func oracleGroupOptimum(c groupCase) (groupTotals []float64, singles []float64) {
	p := core.NewProblem(c.capacity)
	var groupFlows [][]int
	for _, paths := range c.groupPaths {
		g := p.AddAggregate(core.ProportionalFair())
		var ids []int
		for _, links := range paths {
			ids = append(ids, p.AddSubflow(g, links))
		}
		groupFlows = append(groupFlows, ids)
	}
	var singleIDs []int
	for _, links := range c.singles {
		singleIDs = append(singleIDs, p.AddFlow(links, core.ProportionalFair()))
	}
	res := oracle.Solve(p, oracle.SolveOptions{})
	for _, ids := range groupFlows {
		total := 0.0
		for _, id := range ids {
			total += res.Rates[id]
		}
		groupTotals = append(groupTotals, total)
	}
	for _, id := range singleIDs {
		singles = append(singles, res.Rates[id])
	}
	return groupTotals, singles
}

// groupSteadyState runs the case's groups and singles (all unbounded,
// proportional-fair) under alloc until the rates stop moving and
// returns the group totals and single rates.
func groupSteadyState(t *testing.T, c groupCase, alloc Allocator, maxEpochs int) (groupTotals []float64, singles []float64) {
	t.Helper()
	eng := NewEngine(NewNetwork(c.capacity), Config{Epoch: 100e-6, Allocator: alloc})
	var groups []*Group
	for _, paths := range c.groupPaths {
		groups = append(groups, eng.AddGroup(paths, core.ProportionalFair(), 0))
	}
	var flows []*Flow
	for _, links := range c.singles {
		flows = append(flows, eng.AddFlow(links, core.ProportionalFair(), 0, 0))
	}
	prev := make([]float64, len(groups)+len(flows))
	snapshot := func(dst []float64) {
		for i, g := range groups {
			dst[i] = g.Rate()
		}
		for i, f := range flows {
			dst[len(groups)+i] = f.Rate
		}
	}
	cur := make([]float64, len(prev))
	stable := 0
	for ep := 0; ep < maxEpochs; ep++ {
		eng.Step()
		snapshot(cur)
		maxRel := 0.0
		for i := range cur {
			den := math.Max(math.Abs(prev[i]), 1)
			maxRel = math.Max(maxRel, math.Abs(cur[i]-prev[i])/den)
		}
		copy(prev, cur)
		if ep > 0 && maxRel < 1e-9 {
			stable++
			if stable >= 10 {
				break
			}
		} else {
			stable = 0
		}
	}
	for _, g := range groups {
		groupTotals = append(groupTotals, g.Rate())
	}
	for _, f := range flows {
		singles = append(singles, f.Rate)
	}
	return groupTotals, singles
}

// TestXWIGroupGolden: the xWI allocator's steady-state group totals
// and single-flow rates match the oracle's exact multipath pooling
// optimum within 2%.
func TestXWIGroupGolden(t *testing.T) {
	for _, c := range groupCases() {
		t.Run(c.name, func(t *testing.T) {
			wantG, wantS := oracleGroupOptimum(c)
			gotG, gotS := groupSteadyState(t, c, &XWI{IterPerEpoch: 4}, 10000)
			assertWithin(t, c.name+"/groups", gotG, wantG, 0.02)
			assertWithin(t, c.name+"/singles", gotS, wantS, 0.02)
		})
	}
}

// TestGroupStopAndMemberWithdraw: stopping one member withdraws just
// that path; stopping the other leaves the group idle, no member
// finished.
func TestGroupStopAndMemberWithdraw(t *testing.T) {
	eng := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Epoch: 100e-6, Allocator: NewXWI()})
	g := eng.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), 0)
	eng.Step()
	if got := g.Rate(); math.Abs(got-20e9) > 1 {
		t.Fatalf("group rate %g want 20G", got)
	}

	eng.Stop(g.Members[0])
	eng.Step()
	if got := g.Rate(); math.Abs(got-10e9) > 1 {
		t.Errorf("after withdrawing one path: rate %g want 10G", got)
	}

	eng.Stop(g.Members[1])
	eng.Step()
	if got := g.Rate(); got != 0 {
		t.Errorf("after withdrawing both paths: rate %g want 0", got)
	}
	for i, m := range g.Members {
		if m.Done() {
			t.Errorf("stopped member %d marked Done", i)
		}
	}
	if len(eng.active) != 0 {
		t.Errorf("%d flows active, want 0", len(eng.active))
	}
}

// TestGroupLateArrival: a group arriving mid-run is admitted as a unit
// and reduces an established flow's rate; stopping its members gives
// the flow its link back.
func TestGroupLateArrival(t *testing.T) {
	eng := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Epoch: 100e-6, Allocator: NewXWI()})
	long := eng.AddFlow([]int{0}, core.ProportionalFair(), 0, 0)
	g := eng.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), 5e-3)
	eng.Run(4e-3)
	if got := long.Rate; math.Abs(got-10e9) > 1 {
		t.Errorf("alone: rate %g want 10G", got)
	}
	eng.Run(5.2e-3)
	if g.Rate() == 0 {
		t.Fatal("group not admitted")
	}
	if long.Rate > 9.9e9 {
		t.Errorf("established flow rate %g; group arrival had no effect", long.Rate)
	}
	eng.Run(7e-3)
	for _, m := range g.Members {
		eng.Stop(m)
	}
	eng.Run(9e-3)
	if got := g.Rate(); got != 0 {
		t.Fatalf("stopped group rate %g want 0", got)
	}
	if got := long.Rate; math.Abs(got-10e9) > 1 {
		t.Errorf("after group departure: rate %g want 10G", got)
	}
}
