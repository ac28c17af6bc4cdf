// Package transport implements the host rate-control algorithms and
// switch link agents for every scheme the paper evaluates (§6):
//
//   - NUMFabric: the Swift weighted max-min transport (§4.1) plus the
//     xWI weight/price computation (§4.2, §5);
//   - DGD: the Dual Gradient Descent baseline (§3, Eqs. 3 and 14);
//   - RCP*: α-fair RCP (Eq. 15–16), DGD's host at the α-fair utility
//     behind a link agent that prices at R^(-α);
//   - DCTCP: the deployed ECN-based congestion control of Fig. 4b;
//   - pFabric: the FCT-minimizing comparison of Fig. 7.
package transport

import (
	"numfabric/internal/sim"
)

// NUMFabricParams are the Swift/xWI knobs with the paper's defaults
// (Table 2). The zero-queue fabric RTT d0 they work with is the
// constructors' baseRTT argument, the fabric's one value.
type NUMFabricParams struct {
	// EWMATime is the Swift rate-estimator time constant (20 µs).
	EWMATime sim.Duration
	// DT is the window slack beyond the BDP (6 µs ≈ 5 packets at
	// 10 Gb/s; §6.2 discusses the trade-off).
	DT sim.Duration
	// PriceUpdateInterval is the synchronized xWI price period (30 µs,
	// ~2 RTTs).
	PriceUpdateInterval sim.Duration
	// Eta is the underutilization gain η of Eq. 10 (5).
	Eta float64
	// Beta is the price-averaging factor β of Eq. 11 (0.5).
	Beta float64
	// InitWindowBDP, if true, opens the first window to a full BDP
	// (used in the FCT experiments, mimicking pFabric's initial
	// window; §6.3 footnote).
	InitWindowBDP bool
	// DisablePairProbing is an ablation switch: sample EVERY
	// inter-packet gap for the rate estimate (the naive reading of
	// §4.1) instead of only back-to-back pair gaps. Expect window-
	// starved flows to under-achieve their entitlement. The §4.1
	// sampling ablation plays it as the all-gaps variant, and
	// TestPaperClaims pins that it converges no faster than pairs.
	DisablePairProbing bool
}

// DefaultNUMFabric returns Table 2's NUMFabric settings.
func DefaultNUMFabric() NUMFabricParams {
	return NUMFabricParams{
		EWMATime:            20 * sim.Microsecond,
		DT:                  6 * sim.Microsecond,
		PriceUpdateInterval: 30 * sim.Microsecond,
		Eta:                 5,
		Beta:                0.5,
	}
}

// Slowed returns the parameters slowed by factor k: the §6.2 recipe
// for extreme α values (2× slower control loop: price interval and
// EWMA time scaled up).
func (p NUMFabricParams) Slowed(k float64) NUMFabricParams {
	p.EWMATime = sim.Duration(float64(p.EWMATime) * k)
	p.PriceUpdateInterval = sim.Duration(float64(p.PriceUpdateInterval) * k)
	return p
}
