// Sustained churn on the leap engine with table recycling: the
// resident-service usage pattern, where flows arrive forever and the
// process must not grow with the total ever admitted.
//
// The engine stores flows in a pooled slab table (fluid.FlowTable) with
// dense recycled ids and carves their paths from a shared arena.
// Calling Engine.ReleaseFinished() after harvesting each wave's FCTs
// hands completed flows back to the table, so the id space, the slab
// slots, and the path segments all recycle: this program admits 50,000
// flows in 100 waves, yet the table's high-water mark stays at one
// wave's worth of ids and the path arena stops growing after the first
// wave. With the table warm, an entire admit/solve/complete/recycle
// wave performs zero heap allocations (the `make alloc-gate` pins).
//
// Skipping ReleaseFinished is always safe — it is how every batch
// driver in this repo runs: completed flows are simply retained (and
// every *Flow pointer stays valid forever), at the cost of memory
// growing with the total admitted.
package main

import (
	"fmt"
	"math"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/leap"
)

func main() {
	// One 10 Gb/s bottleneck shared by every flow, so each wave is a
	// coupled component and exercises the full reallocation path.
	net := fluid.NewNetwork([]float64{10e9})
	e := leap.NewEngine(net, leap.Config{})
	tbl := e.Tables()

	const (
		waves   = 100
		perWave = 500
		// Flows arrive in same-instant pairs sharing the link: alone, a
		// 48 KB flow drains in 39 µs — under the 100 µs spacing, so
		// nothing would ever overlap — but a pair splits the link and
		// takes 79 µs, a genuinely coupled 2-flow solve at ~0.8 load.
		size     = int64(48 << 10)
		interArr = 100e-6
	)
	path := []int{0} // the engine copies it into the table arena
	var u core.Utility = core.ProportionalFair()

	now, admitted := 0.0, 0
	var meanFCT float64
	fmt.Println("wave  admitted  live-ids  peak-ids  arena-ints")
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave/2; i++ {
			e.AddFlow(path, u, size, now)
			e.AddFlow(path, u, size, now)
			now += interArr
		}
		now += 50 * interArr // drain gap: the wave completes
		e.Run(now)
		admitted += perWave

		for _, f := range e.Finished() {
			meanFCT += f.FCT()
		}
		released := e.ReleaseFinished()
		if released != perWave {
			panic(fmt.Sprintf("wave %d: released %d flows, want %d", w, released, perWave))
		}
		if w%25 == 0 || w == waves-1 {
			fmt.Printf("%4d  %8d  %8d  %8d  %10d\n",
				w, admitted, tbl.Len(), tbl.Cap(), tbl.ArenaInts())
		}
	}
	meanFCT /= float64(admitted)

	ideal := float64(size*8) / 10e9
	fmt.Printf("\n%d flows admitted through a table of %d id slots "+
		"(%.1f×  reuse); mean FCT %.0f µs vs %.0f µs unloaded ideal\n",
		admitted, tbl.Cap(), float64(admitted)/math.Max(float64(tbl.Cap()), 1),
		meanFCT*1e6, ideal*1e6)
}
