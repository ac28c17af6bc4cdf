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
		groups = append(groups, eng.AddGroup(paths, core.ProportionalFair(), 0, 0))
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

// TestOracleGroupExact: the Oracle allocator realizes the exact
// multipath optimum in a single epoch.
func TestOracleGroupExact(t *testing.T) {
	for _, c := range groupCases() {
		t.Run(c.name, func(t *testing.T) {
			wantG, wantS := oracleGroupOptimum(c)
			gotG, gotS := groupSteadyState(t, c, NewOracle(), 50)
			assertWithin(t, c.name+"/groups", gotG, wantG, 0.01)
			assertWithin(t, c.name+"/singles", gotS, wantS, 0.01)
		})
	}
}

// TestDGDGroupGolden: the DGD dynamics with multipath demand steering
// reach the pooling optimum on the symmetric cases.
func TestDGDGroupGolden(t *testing.T) {
	for _, c := range groupCases() {
		t.Run(c.name, func(t *testing.T) {
			wantG, wantS := oracleGroupOptimum(c)
			gotG, gotS := groupSteadyState(t, c, &DGD{Gamma: 0.05, IterPerEpoch: 100}, 5000)
			assertWithin(t, c.name+"/groups", gotG, wantG, 0.02)
			assertWithin(t, c.name+"/singles", gotS, wantS, 0.02)
		})
	}
}

// TestWaterFillGroupBottleneckAware: under pure water-filling a group
// sheds weight from a congested path onto an uncontended one, and a
// group over disjoint idle paths uses their full combined capacity.
func TestWaterFillGroupBottleneckAware(t *testing.T) {
	// Group over two idle links: full 20G.
	eng := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Allocator: NewWaterFill()})
	g := eng.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), 0, 0)
	eng.Step()
	if got := g.Rate(); math.Abs(got-20e9) > 1 {
		t.Errorf("idle pool: group rate %g want 20G", got)
	}

	// A competitor on link 0: the group's weight concentrates on link
	// 1 (member 1 near 10G), leaving the competitor most of link 0.
	eng = NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Allocator: NewWaterFill()})
	g = eng.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), 0, 0)
	single := eng.AddFlow([]int{0}, core.ProportionalFair(), 0, 0)
	eng.Step()
	if got := g.Members[1].Rate; math.Abs(got-10e9) > 1 {
		t.Errorf("uncontended member: rate %g want 10G", got)
	}
	if single.Rate < 0.85*10e9 {
		t.Errorf("competitor rate %g; group failed to shed the congested path", single.Rate)
	}
	if got := g.Rate(); got < 10e9 {
		t.Errorf("group rate %g want ≥ 10G", got)
	}
}

// TestGroupFiniteDrain: a finite group drains its shared payload at
// the members' total rate and completes as a unit with sub-epoch
// precision.
func TestGroupFiniteDrain(t *testing.T) {
	eng := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Epoch: 100e-6, Allocator: NewWaterFill()})
	const size = 10 << 20 // 10 MB over 20 Gb/s: ~4.19 ms
	g := eng.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), size, 0)
	eng.Run(math.Inf(1))
	if !g.Done() {
		t.Fatal("group did not finish")
	}
	want := float64(size) * 8 / 20e9
	if math.Abs(g.FCT()-want)/want > 0.01 {
		t.Errorf("group FCT %g want %g", g.FCT(), want)
	}
	for i, m := range g.Members {
		if !m.Done() || m.Finish != g.Finish {
			t.Errorf("member %d finish %g want group finish %g", i, m.Finish, g.Finish)
		}
	}
	if len(eng.FinishedGroups()) != 1 {
		t.Errorf("FinishedGroups has %d entries, want 1", len(eng.FinishedGroups()))
	}
}

// TestGroupFiniteDrainWithWithdrawnMember: a member withdrawn via
// Stop before its group completes keeps its NaN Finish and stays out
// of Finished(); the remaining members complete with the group.
func TestGroupFiniteDrainWithWithdrawnMember(t *testing.T) {
	eng := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Epoch: 100e-6, Allocator: NewWaterFill()})
	const size = 10 << 20 // 10 MB on the one remaining 10 Gb/s path: ~8.4 ms
	g := eng.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), size, 0)
	eng.Step()
	eng.Stop(g.Members[0])
	eng.Run(math.Inf(1))
	if !g.Done() {
		t.Fatal("group did not finish")
	}
	if g.Members[0].Done() {
		t.Error("withdrawn member should keep its NaN Finish")
	}
	if !g.Members[1].Done() || g.Members[1].Finish != g.Finish {
		t.Error("surviving member should complete with the group")
	}
	for _, f := range eng.Finished() {
		if f == g.Members[0] {
			t.Error("withdrawn member appears in Finished()")
		}
	}
}

// TestGroupStopAndMemberWithdraw: stopping one member withdraws just
// that path; stopping the other leaves the group idle, not Done.
func TestGroupStopAndMemberWithdraw(t *testing.T) {
	eng := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Epoch: 100e-6, Allocator: NewWaterFill()})
	g := eng.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), 0, 0)
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
	if g.Done() {
		t.Error("stopped group should not be marked Done")
	}
	if len(eng.Active()) != 0 {
		t.Errorf("%d flows active, want 0", len(eng.Active()))
	}
}

// TestGroupLateArrival: a group arriving mid-run is admitted as a unit
// and reduces an established flow's rate.
func TestGroupLateArrival(t *testing.T) {
	eng := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Epoch: 100e-6, Allocator: NewWaterFill()})
	long := eng.AddFlow([]int{0}, core.ProportionalFair(), 0, 0)
	// 2.5 MB pooled at ≥10 Gb/s arrives at t=5ms and drains in ≤2 ms.
	g := eng.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), 2500000, 5e-3)
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
	eng.Run(9e-3)
	if !g.Done() {
		t.Fatal("group should have finished")
	}
	if got := long.Rate; math.Abs(got-10e9) > 1 {
		t.Errorf("after group departure: rate %g want 10G", got)
	}
}
