package oracle

import (
	"testing"

	"numfabric/internal/sim"
)

// FuzzPreparedFill holds Prepare + Fill to the one-shot WeightedMaxMin,
// bit for bit, on byte-driven problems built to make links alike: up to
// 16 links whose capacities come from a three-value palette (0, 10 and
// 40 Gbps), up to 12 flows of 1–5 hops that may cross one link more
// than once, and 1–4 Fills per Prepare with weights from {−1, 0, 0.5,
// 1, 2, 3} (so weights ≤ 0 and exact ties are common). Two problems
// share one workspace, so the second Prepare starts from the first's
// leftovers.
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
			}
		}
	})
}
