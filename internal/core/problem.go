package core

import (
	"fmt"
	"slices"
)

// Problem is a NUM bandwidth-allocation problem instance (Eq. 1):
//
//	maximize   Σ_g U_g(Σ_{i∈g} x_i)
//	subject to R·x ≤ c,  x ≥ 0
//
// Flows are grouped: a singleton group is an ordinary flow whose
// utility is a function of its own rate; a multi-flow group models
// resource pooling (Table 1, row 4), where the group's utility applies
// to the aggregate rate of its subflows on different paths, exactly as
// in Kelly's multipath NUM formulation.
type Problem struct {
	// Capacity holds per-link capacities in bits/second.
	Capacity []float64
	// Flows holds one entry per (sub)flow.
	Flows []FlowSpec
	// Groups partitions the flows.
	Groups []Group
}

// FlowSpec describes one flow: the links it traverses (indices into
// Problem.Capacity) and the group it belongs to.
type FlowSpec struct {
	Links []int
	Group int
}

// Group is a set of flows sharing one utility of their aggregate rate.
type Group struct {
	U     Utility
	Flows []int
}

// NewProblem returns a problem over links with the given capacities.
func NewProblem(capacity []float64) *Problem {
	return &Problem{Capacity: append([]float64(nil), capacity...)}
}

// Reset empties p and sets its capacities, keeping every backing array:
// the flows, groups and paths added next reuse those of the ones added
// before, so a caller re-building one problem per event allocates only
// when a problem outgrows its predecessors. Slices read from p before
// the Reset are overwritten.
func (p *Problem) Reset(capacity []float64) {
	p.Capacity = append(p.Capacity[:0], capacity...)
	p.Flows, p.Groups = p.Flows[:0], p.Groups[:0]
}

// AddFlow adds a single-path flow with its own utility and returns its
// flow index.
func (p *Problem) AddFlow(links []int, u Utility) int {
	return p.addFlowToGroup(links, p.AddAggregate(u))
}

// AddAggregate creates a resource-pooling group whose utility applies
// to the total rate of its subflows; add paths with AddSubflow.
func (p *Problem) AddAggregate(u Utility) int {
	g := len(p.Groups)
	p.Groups = slices.Grow(p.Groups, 1)[:g+1]
	p.Groups[g] = Group{U: u, Flows: p.Groups[g].Flows[:0]}
	return g
}

// AddSubflow adds one path to an aggregate created by AddAggregate and
// returns the new flow index.
func (p *Problem) AddSubflow(group int, links []int) int {
	return p.addFlowToGroup(links, group)
}

func (p *Problem) addFlowToGroup(links []int, group int) int {
	id := len(p.Flows)
	p.Flows = slices.Grow(p.Flows, 1)[:id+1]
	p.Flows[id] = FlowSpec{Links: append(p.Flows[id].Links[:0], links...), Group: group}
	p.Groups[group].Flows = append(p.Groups[group].Flows, id)
	return id
}

// Validate checks internal consistency: link indices in range, positive
// capacities, every group non-empty with a utility, and the groups
// forming a partition of the flows.
func (p *Problem) Validate() error {
	for l, c := range p.Capacity {
		if c <= 0 {
			return fmt.Errorf("core: link %d has non-positive capacity %g", l, c)
		}
	}
	seen := make([]int, len(p.Flows))
	for i := range seen {
		seen[i] = -1
	}
	for g, grp := range p.Groups {
		if grp.U == nil {
			return fmt.Errorf("core: group %d has no utility", g)
		}
		if len(grp.Flows) == 0 {
			return fmt.Errorf("core: group %d has no flows", g)
		}
		for _, f := range grp.Flows {
			if f < 0 || f >= len(p.Flows) {
				return fmt.Errorf("core: group %d references unknown flow %d", g, f)
			}
			if seen[f] != -1 {
				return fmt.Errorf("core: flow %d in groups %d and %d", f, seen[f], g)
			}
			seen[f] = g
		}
	}
	for i, f := range p.Flows {
		if seen[i] == -1 {
			return fmt.Errorf("core: flow %d not in any group", i)
		}
		if f.Group != seen[i] {
			return fmt.Errorf("core: flow %d Group field %d disagrees with group membership %d", i, f.Group, seen[i])
		}
		if len(f.Links) == 0 {
			return fmt.Errorf("core: flow %d traverses no links", i)
		}
		for _, l := range f.Links {
			if l < 0 || l >= len(p.Capacity) {
				return fmt.Errorf("core: flow %d uses unknown link %d", i, l)
			}
		}
	}
	return nil
}

// IsFeasible reports whether rates x satisfy the capacity constraints
// within tolerance tol (relative to each link's capacity).
func (p *Problem) IsFeasible(x []float64, tol float64) bool {
	if len(x) != len(p.Flows) {
		return false
	}
	load := make([]float64, len(p.Capacity))
	for i, f := range p.Flows {
		if x[i] < 0 {
			return false
		}
		for _, l := range f.Links {
			load[l] += x[i]
		}
	}
	for l, y := range load {
		if y > p.Capacity[l]*(1+tol) {
			return false
		}
	}
	return true
}

// TotalUtility evaluates the objective Σ_g U_g(Σ_{i∈g} x_i).
func (p *Problem) TotalUtility(x []float64) float64 {
	total := 0.0
	for _, g := range p.Groups {
		y := 0.0
		for _, f := range g.Flows {
			y += x[f]
		}
		total += g.U.Value(y)
	}
	return total
}
