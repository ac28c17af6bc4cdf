package oracle_test

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
	"numfabric/internal/leap"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
)

// TestFillCountsFCTMinXWI plays the fctmin-xwi benchmark workload (the
// paper's xWI to its fixed point under the FCT-min utility, web-search
// Poisson arrivals at load 0.12 on the k=8 fat-tree; the same schedule
// the benchmark draws) at seeds 1–2 with every Fill replayed by a plain
// progressive fill twice: over the representatives Fill scans and over
// every touched link. Both replays must return Fill's rates bit for
// bit. It logs, by width bucket, the links per Prepare and the classes
// they form, the rounds per Fill and the links each round scans with
// and without classes (run with -v to read them).
func TestFillCountsFCTMinXWI(t *testing.T) {
	if testing.Short() {
		t.Skip("plays two 20k-flow schedules")
	}
	const flows = 20_000
	for seed := uint64(1); seed <= 2; seed++ {
		counts, err := oracle.CountFills(func() { playFCTMinXWI(seed, flows) })
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var touched, reps, fills int64
		for _, b := range counts {
			touched, reps, fills = touched+b.Touched, reps+b.Reps, fills+b.Fills
		}
		if fills == 0 || reps >= touched {
			t.Fatalf("seed %d: %d fills, %d representatives of %d touched links: the play no longer exercises classes", seed, fills, reps, touched)
		}
		t.Logf("seed %d, %d flows:\n%s", seed, flows, counts.String())
	}
}

func playFCTMinXWI(seed uint64, flows int) {
	ft := fluid.NewFatTree(8, 10e9)
	arrivals, paths := harness.FatTreeWebSearch(ft, 0.12, flows, sim.NewRNG(seed))
	alloc := harness.LeapAllocatorFor(harness.DefaultConfig(harness.NUMFabric, harness.ScaledTopology()))
	eng := leap.NewEngine(ft.Net, leap.Config{Allocator: alloc})
	for i, a := range arrivals {
		eng.AddFlow(paths[i], core.FCTMin(a.Size, core.FCTEpsilon), a.Size, a.At.Seconds())
	}
	eng.Run(math.Inf(1))
}
