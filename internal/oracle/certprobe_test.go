package oracle

import (
	"fmt"
	"slices"
	"strings"

	"numfabric/internal/cert"
	"numfabric/internal/core"
)

// Certified is the worst of internal/cert's numbers over a run's
// solves, with the solve each was found at (numbered from 1).
type Certified struct {
	Solves, Unconverged int
	Feasibility, KKT    float64
	FeasAt, KKTAt       int
}

// CertifySolves runs play with every Solve certified against the problem
// it was given and returns the worst values.
func CertifySolves(play func()) (c Certified) {
	solveProbe = func(p *core.Problem, res Result) {
		c.Solves++
		if !res.Converged {
			c.Unconverged++
		}
		if v := cert.Feasibility(p, res.Rates); v > c.Feasibility {
			c.Feasibility, c.FeasAt = v, c.Solves
		}
		if v := cert.KKT(p, res.Rates, res.Prices); v > c.KKT {
			c.KKT, c.KKTAt = v, c.Solves
		}
	}
	defer func() { solveProbe = nil }()
	play()
	return c
}

// The shapes a Solve's problem can take: one flow; a star — every group
// one flow, and every link it touches crossed by one of its flows or by
// all of them; anything else.
const (
	ShapeSingleton = iota
	ShapeStar
	ShapeOther
)

var shapeNames = [3]string{"singleton", "star", "other"}

// Shapes tallies a run's solves and their iterations by shape, and how
// many of the others are laminar: any two touched links' flow sets are
// nested or disjoint.
type Shapes struct {
	Solves, Iters [3]int
	Laminar       int
}

func (s Shapes) String() string {
	var b strings.Builder
	for k, n := range s.Solves {
		fmt.Fprintf(&b, "%s %d (%.1f iterations)  ", shapeNames[k], n, float64(s.Iters[k])/float64(max(n, 1)))
	}
	fmt.Fprintf(&b, "laminar others %d", s.Laminar)
	return b.String()
}

// CountShapes runs play with every Solve classified by shape.
func CountShapes(play func()) (s Shapes) {
	solveProbe = func(p *core.Problem, res Result) {
		sets := linkFlowSets(p)
		k := shapeOf(p, sets)
		s.Solves[k]++
		s.Iters[k] += res.Iterations
		if k == ShapeOther && laminar(sets) {
			s.Laminar++
		}
	}
	defer func() { solveProbe = nil }()
	play()
	return s
}

// linkFlowSets lists, per touched link, the flows crossing it in
// ascending order.
func linkFlowSets(p *core.Problem) map[int][]int {
	sets := make(map[int][]int)
	for i, f := range p.Flows {
		for _, l := range f.Links {
			sets[l] = append(sets[l], i)
		}
	}
	return sets
}

func shapeOf(p *core.Problem, sets map[int][]int) int {
	nf := len(p.Flows)
	if nf == 1 {
		return ShapeSingleton
	}
	for _, g := range p.Groups {
		if len(g.Flows) != 1 {
			return ShapeOther
		}
	}
	for _, fs := range sets {
		if len(fs) != 1 && len(fs) != nf {
			return ShapeOther
		}
	}
	return ShapeStar
}

func laminar(sets map[int][]int) bool {
	for _, a := range sets {
		for _, b := range sets {
			n := 0
			for _, f := range a {
				if slices.Contains(b, f) {
					n++
				}
			}
			if n != 0 && n != len(a) && n != len(b) {
				return false
			}
		}
	}
	return true
}
