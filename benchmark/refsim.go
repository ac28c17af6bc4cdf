package main

import (
	"math"

	"numfabric/internal/oracle"
)

// refTolerance is the relative FCT difference beyond which a flow
// counts as failed against the reference.
const refTolerance = 1e-9

// refFCTs is the reference the fast engine is judged against, and it
// is naive on purpose: at every arrival and every departure it
// re-solves the whole active set with oracle.WeightedMaxMin (equal
// weights — what fluid.WaterFill computes for proportional-fair
// flows), drains every active flow eagerly, and finds the next
// departure by linear scan. No heap, no link index, no components, no
// laziness: it shares nothing with internal/leap but the max-min
// solver's definition of fairness.
//
// at must be sorted; at[i] is flow i's arrival in seconds, size[i] its
// payload in bytes, paths[i] the links it crosses. The result is each
// flow's completion time minus its arrival.
func refFCTs(capacity []float64, at, size []float64, paths [][]int) []float64 {
	n := len(at)
	fct := make([]float64, n)
	for i := range fct {
		fct[i] = math.NaN()
	}
	remaining := append([]float64(nil), size...)
	var active []int
	now, next := 0.0, 0
	for next < n || len(active) > 0 {
		rates := solveAll(capacity, active, paths)
		// Earliest departure under the current rates.
		depT := math.Inf(1)
		finish := make([]float64, len(active))
		for i, f := range active {
			finish[i] = math.Inf(1)
			if rates[i] > 0 {
				finish[i] = now + remaining[f]*8/rates[i]
			}
			depT = math.Min(depT, finish[i])
		}
		arrT := math.Inf(1)
		if next < n {
			arrT = at[next]
		}
		t := math.Min(depT, arrT)
		if math.IsInf(t, 1) {
			break // nothing can ever finish: leave the rest NaN
		}
		for i, f := range active {
			remaining[f] -= rates[i] / 8 * (t - now)
		}
		now = t
		if depT <= arrT {
			// Retire every flow finishing at this instant.
			kept := active[:0]
			for i, f := range active {
				if finish[i] <= depT || remaining[f] <= 0 {
					fct[f] = now - at[f]
				} else {
					kept = append(kept, f)
				}
			}
			active = kept
		}
		for next < n && at[next] <= now {
			active = append(active, next)
			next++
		}
	}
	return fct
}

// solveAll is one from-scratch equal-weight max-min solve of the
// active set.
func solveAll(capacity []float64, active []int, paths [][]int) []float64 {
	if len(active) == 0 {
		return nil
	}
	ps := make([][]int, len(active))
	ws := make([]float64, len(active))
	for i, f := range active {
		ps[i] = paths[f]
		ws[i] = 1
	}
	return oracle.WeightedMaxMin(capacity, ps, ws)
}

// refCompare counts the flows whose engine FCT differs from the
// reference by more than refTolerance (relative), and reports the
// largest relative error seen (1 for a flow either side left NaN).
func refCompare(engine, ref []float64) (failed int, errMax float64) {
	for i := range ref {
		err := math.Abs(engine[i]-ref[i]) / ref[i]
		if math.IsNaN(err) {
			err = 1 // an unfinished flow on either side is 100% off
		}
		if err > refTolerance {
			failed++
		}
		errMax = math.Max(errMax, err)
	}
	return failed, errMax
}
