// Package core implements the paper's primary abstractions: the
// Network Utility Maximization (NUM) problem, the utility-function
// families of Table 1 (α-fairness, weighted α-fairness, flow-completion
// -time minimization, resource pooling, bandwidth functions), and the
// piecewise-linear bandwidth functions of Google's BwE that §2 shows
// how to encode as utilities.
//
// Rates are expressed in bits per second throughout.
package core

import (
	"fmt"
	"math"
)

// Utility is a smooth, increasing, strictly concave utility function
// U(x) of a flow's rate x (bits/second), as required by the NUM
// problem (1) in the paper. Implementations must also expose the
// marginal utility U'(x) and its inverse, which are what the
// distributed algorithms actually evaluate:
//
//   - DGD sets rates x = U'⁻¹(Σ prices)       (Eq. 3)
//   - xWI sets Swift weights w = U'⁻¹(Σ prices) (Eq. 7)
//   - xWI's residual uses U'(x̂)                (Eq. 9)
type Utility interface {
	// Value returns U(x).
	Value(x float64) float64
	// Marginal returns U'(x) (> 0, strictly decreasing).
	Marginal(x float64) float64
	// InverseMarginal returns the x with U'(x) = p.
	InverseMarginal(p float64) float64
}

// minRate floors rate arguments so marginals stay finite: utilities in
// this package are only queried for physically meaningful rates (well
// above 1 bit/s on multi-gigabit fabrics).
const minRate = 1.0

// AlphaFair is the α-fair utility family (Table 1, rows 1–2):
//
//	U(x) = w^α · x^(1-α) / (1-α)     (α ≠ 1)
//	U(x) = w · log x                 (α = 1, the limit)
//
// α = 0 maximizes total throughput, α = 1 is (weighted) proportional
// fairness, α → ∞ approaches max-min fairness. The weight w expresses
// relative priority; w = 1 recovers the unweighted family.
type AlphaFair struct {
	Alpha  float64
	Weight float64
}

// NewAlphaFair returns an α-fair utility with weight 1.
func NewAlphaFair(alpha float64) AlphaFair { return AlphaFair{Alpha: alpha, Weight: 1} }

// NewWeightedAlphaFair returns a weighted α-fair utility.
func NewWeightedAlphaFair(alpha, weight float64) AlphaFair {
	return AlphaFair{Alpha: alpha, Weight: weight}
}

// ProportionalFair returns the α = 1 member: U(x) = log x.
func ProportionalFair() AlphaFair { return AlphaFair{Alpha: 1, Weight: 1} }

// Value returns U(x).
func (u AlphaFair) Value(x float64) float64 {
	x = max(x, minRate)
	w := u.EffectiveWeight()
	if u.isLog() {
		return w * math.Log(x)
	}
	return math.Pow(w, u.Alpha) * math.Pow(x, 1-u.Alpha) / (1 - u.Alpha)
}

// Marginal returns U'(x) = (w/x)^α.
func (u AlphaFair) Marginal(x float64) float64 {
	x = max(x, minRate)
	if u.isLog() {
		// α=1 fast path: w/x, avoiding math.Pow on the hot paths (the
		// fluid allocators evaluate marginals per flow per epoch).
		return u.EffectiveWeight() / x
	}
	return math.Pow(u.EffectiveWeight()/x, u.Alpha)
}

// InverseMarginal returns x = w · p^(-1/α).
func (u AlphaFair) InverseMarginal(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if u.isLog() {
		return u.EffectiveWeight() / p
	}
	return u.EffectiveWeight() * math.Pow(p, -1/u.Alpha)
}

// EffectiveWeight returns the weight the utility evaluates with: Weight,
// or 1 when it is unset (≤ 0).
func (u AlphaFair) EffectiveWeight() float64 {
	if u.Weight <= 0 {
		return 1
	}
	return u.Weight
}

func (u AlphaFair) isLog() bool { return math.Abs(u.Alpha-1) < 1e-12 }

func (u AlphaFair) String() string {
	return fmt.Sprintf("AlphaFair(alpha=%g, w=%g)", u.Alpha, u.EffectiveWeight())
}

// FCTEpsilon is the ε of §6.3's FCT-minimization experiment, the
// strict-concavity constant of FCTMin and Deadline.
const FCTEpsilon = 0.125

// FCTMin returns the utility that approximates Shortest-Flow-First for
// minimizing flow completion time (Table 1, row 3, with the footnote's
// strict-concavity fix):
//
//	U(x) = (1/s) · x^(1-ε) / (1-ε)
//
// where s is the flow size in bytes and ε a small constant (the paper
// uses FCTEpsilon in §6.3; ε ≤ 0 falls back to it). This is the
// weighted α-fair utility with α = ε and w = s^(-1/ε): smaller flows
// get sharply higher marginal utility and therefore near-strict
// priority.
func FCTMin(sizeBytes int64, epsilon float64) AlphaFair {
	if sizeBytes < 1 {
		sizeBytes = 1
	}
	if epsilon <= 0 {
		epsilon = FCTEpsilon
	}
	return AlphaFair{Alpha: epsilon, Weight: priorityWeight(float64(sizeBytes), epsilon)}
}

// SRPTMin is like FCTMin but keyed on remaining size, approximating
// Shortest-Remaining-Processing-Time when the caller refreshes the
// utility as the flow drains (§2 notes weights can be chosen inversely
// proportional to the remaining flow size).
func SRPTMin(remainingBytes int64, epsilon float64) AlphaFair {
	return FCTMin(remainingBytes, epsilon)
}

// Deadline returns an Earliest-Deadline-First-approximating utility:
// weight inversely proportional to time-to-deadline (in seconds), per
// §2's discussion of deadline scheduling.
func Deadline(secondsToDeadline, epsilon float64) AlphaFair {
	if secondsToDeadline <= 0 {
		secondsToDeadline = 1e-6
	}
	if epsilon <= 0 {
		epsilon = FCTEpsilon
	}
	return AlphaFair{Alpha: epsilon, Weight: priorityWeight(secondsToDeadline, epsilon)}
}

// priorityWeight returns v^(-1/ε) clamped to the positive normal
// range. A small ε underflows the power to 0 for a large v, which
// AlphaFair reads as "unset → 1" — the lowest priority silently became
// one of the highest — and overflows it to +Inf for a small one. The
// clamp keeps the order (non-increasing in v) until it saturates.
func priorityWeight(v, epsilon float64) float64 {
	const minNormal = 0x1p-1022
	return min(max(math.Pow(v, -1/epsilon), minNormal), math.MaxFloat64)
}
