package oracle

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"numfabric/internal/cert"
	"numfabric/internal/core"
)

// Certified is the worst of internal/cert's numbers over a run's
// solves, with the solve each was found at (numbered from 1), and the
// worst over the solves the dual Newton returned.
type Certified struct {
	Solves, Unconverged   int
	Feasibility, KKT, Gap float64
	FeasAt, KKTAt, GapAt  int
	Newton                int
	NewtonFeas, NewtonKKT float64
}

// CertifySolves runs play with every Solve certified against the problem
// it was given and returns the worst values.
func CertifySolves(play func()) (c Certified) {
	solveProbe = func(ws *SolveWorkspace, p *core.Problem, res Result) {
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
		if v := cert.Gap(p, res.Rates, res.Prices); v > c.Gap {
			c.Gap, c.GapAt = v, c.Solves
		}
		if ws.route == routeNewton {
			c.Newton++
			c.NewtonFeas = max(c.NewtonFeas, cert.Feasibility(p, res.Rates))
			c.NewtonKKT = max(c.NewtonKKT, cert.KKT(p, res.Rates, res.Prices))
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
// nested or disjoint. Of the others, Dual counts those a dual Newton over
// link classes can take — single-flow groups on non-empty paths under one
// α, every touched capacity finite and > 0 — with their flows and their
// classes crossed by more than one flow (Shared); of the solves Solve
// sent to the Newton, how many it certified (Newton, in NewtonSteps
// steps) and how many it handed to the iteration (Fallback).
type Shapes struct {
	Solves, Iters                 [3]int
	Laminar                       int
	Dual, DualFlows, Shared       int
	Newton, NewtonSteps, Fallback int
}

func (s Shapes) String() string {
	var b strings.Builder
	for k, n := range s.Solves {
		fmt.Fprintf(&b, "%s %d (%.1f iterations)  ", shapeNames[k], n, float64(s.Iters[k])/float64(max(n, 1)))
	}
	fmt.Fprintf(&b, "laminar others %d  dual-eligible others %d (%.1f flows, %.1f shared classes)",
		s.Laminar, s.Dual, float64(s.DualFlows)/float64(max(s.Dual, 1)), float64(s.Shared)/float64(max(s.Dual, 1)))
	fmt.Fprintf(&b, "  Newton %d (%.1f steps), fallback %d", s.Newton, float64(s.NewtonSteps)/float64(max(s.Newton, 1)), s.Fallback)
	return b.String()
}

// CountShapes runs play with every Solve classified by shape.
func CountShapes(play func()) (s Shapes) {
	solveProbe = func(ws *SolveWorkspace, p *core.Problem, res Result) {
		sets := linkFlowSets(p)
		k := shapeOf(p, sets)
		s.Solves[k]++
		s.Iters[k] += res.Iterations
		if k == ShapeOther && laminar(sets) {
			s.Laminar++
		}
		if k == ShapeOther && dualEligible(p) {
			s.Dual++
			s.DualFlows += len(p.Flows)
			s.Shared += sharedClasses(p, sets)
		}
		switch ws.route {
		case routeNewton:
			s.Newton++
			s.NewtonSteps += res.Iterations
		case routeFallback:
			s.Fallback++
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

// dualEligible reports whether every group of p is one flow on a
// non-empty path, every utility an AlphaFair of one α, and every link a
// flow crosses of finite capacity > 0.
func dualEligible(p *core.Problem) bool {
	alpha := math.NaN()
	for _, g := range p.Groups {
		u, ok := g.U.(core.AlphaFair)
		if len(g.Flows) != 1 || len(p.Flows[g.Flows[0]].Links) == 0 || !ok || (alpha == alpha && u.Alpha != alpha) {
			return false
		}
		alpha = u.Alpha
	}
	for _, f := range p.Flows {
		for _, l := range f.Links {
			if c := p.Capacity[l]; !(c > 0) || math.IsInf(c, 1) {
				return false
			}
		}
	}
	return true
}

// sharedClasses counts the distinct flow sets (with capacity) of the
// links crossed by more than one flow.
func sharedClasses(p *core.Problem, sets map[int][]int) int {
	seen := map[string]bool{}
	for l, fs := range sets {
		if len(fs) > 1 {
			seen[fmt.Sprint(p.Capacity[l], fs)] = true
		}
	}
	return len(seen)
}
