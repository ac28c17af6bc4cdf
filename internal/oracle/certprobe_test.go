package oracle

import (
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
