package oracle

import (
	"slices"
	"testing"

	"numfabric/internal/cert"
	"numfabric/internal/core"
	"numfabric/internal/sim"
)

// FuzzPreparedFill holds Prepare + Fill to the one-shot WeightedMaxMin,
// bit for bit, on byte-driven problems built to make links alike: up to
// 16 links whose capacities come from a three-value palette (0, 10 and
// 40 Gbps), up to 12 flows of 1–5 hops that may cross one link more
// than once, and 1–4 Fills per Prepare with weights from {−1, 0, 0.5,
// 1, 2, 3} (so weights ≤ 0 and exact ties are common). Two problems
// share one workspace, so the second Prepare starts from the first's
// leftovers. A fill with every weight > 0 must also pass cert.MaxMin
// within 1e-12.
func FuzzPreparedFill(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 1, 2, 2, 0, 1, 2, 3, 2, 1, 0, 3, 1, 2, 3, 4, 5})
	f.Add([]byte{8, 1, 1, 1, 1, 1, 1, 1, 1, 4, 4, 0, 1, 2, 3, 3, 0, 2, 1, 3, 2, 4, 5, 6, 7, 2, 2, 3})
	f.Add([]byte{2, 0, 2, 6, 0, 1, 0, 1, 0, 1, 2, 2, 1, 0, 1, 3, 3, 0})
	rng := sim.NewRNG(7)
	for range 24 {
		data := make([]byte, 16+rng.Intn(240))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		f.Add(data)
	}
	palette := [3]float64{0, 10 * gbps, 40 * gbps}
	weights := [6]float64{-1, 0, 0.5, 1, 2, 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		var ws MaxMinWorkspace
		var x []float64
		for problem := 0; problem < 2; problem++ {
			capacity := make([]float64, 1+next()%16)
			for l := range capacity {
				capacity[l] = palette[next()%3]
			}
			paths := make([][]int, next()%13)
			for i := range paths {
				paths[i] = make([]int, 1+next()%5)
				for h := range paths[i] {
					paths[i][h] = next() % len(capacity)
				}
			}
			ws.Prepare(capacity, paths)
			for fill := 1 + next()%4; fill > 0; fill-- {
				w := make([]float64, len(paths))
				for i := range w {
					w[i] = weights[next()%6]
				}
				want := WeightedMaxMin(capacity, paths, w)
				x = ws.Fill(w, x)
				if !bitsEqual(x, want) {
					t.Fatalf("problem %d: capacity %v paths %v weights %v: Fill %v, one-shot %v",
						problem, capacity, paths, w, x, want)
				}
				if v := maxMinCert(capacity, paths, w, x); v > 1e-12 && !slices.ContainsFunc(w, func(w float64) bool { return w <= 0 }) {
					t.Fatalf("problem %d: capacity %v paths %v weights %v: rates %v miss the max-min certificate by %.3g",
						problem, capacity, paths, w, x, v)
				}
			}
		}
	})
}

// maxMinCert is cert.MaxMin of rates x filled under weights w, each
// weight ≤ 0 read as the fill reads it (1e-12). The fuzz target holds
// only fills with every weight > 0 to it: next to a weight of 1e-12 the
// fill's running weight sums cancel (3 + 1e-12 − 3 keeps four digits),
// which the certificate reads as a shortfall near 1e-4.
func maxMinCert(capacity []float64, paths [][]int, w, x []float64) float64 {
	p := core.NewProblem(capacity)
	eff := make([]float64, len(w))
	for i, pth := range paths {
		p.AddFlow(pth, core.ProportionalFair())
		eff[i] = w[i]
		if eff[i] <= 0 {
			eff[i] = 1e-12
		}
	}
	return cert.MaxMin(p, eff, x)
}
