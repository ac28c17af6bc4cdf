// Resource pooling (§6.3, Figure 8 scenario): MPTCP-style multipath
// aggregates expressed as a NUM objective. With a single random path
// per pair, ECMP hash collisions strand capacity; with several pooled
// subflows per pair, the fabric behaves like one big link and every
// pair converges to its fair share of it.
//
// This example runs the packet-level simulator and finishes with the
// same scenario on the fluid engine (RunPoolingWith), which plays the
// identical seed through fluid multipath aggregate groups orders of
// magnitude faster — see examples/fluidpooling for the group API
// itself and for pooling on fat-trees at ≥10k-subflow scale.
package main

import (
	"fmt"

	"numfabric"
)

func main() {
	fmt.Println("Permutation traffic on a full-bisection fabric;")
	fmt.Println("throughput as % of optimal (line rate per pair):")
	fmt.Println()
	fmt.Println("subflows  pooling  total%   Jain fairness")
	for _, k := range []int{1, 2, 4, 8} {
		for _, pooling := range []bool{false, true} {
			res := numfabric.RunPoolingWith(numfabric.EnginePacket, numfabric.DefaultPooling(k, pooling))
			label := "off"
			if pooling {
				label = "on "
			}
			fmt.Printf("   %d       %s    %5.1f%%     %.3f\n",
				k, label, res.TotalThroughputPct(), res.JainIndex())
		}
	}

	fmt.Println()
	fmt.Println("Figure 8b flavor: per-pair throughput, ranked (4 subflows, pooling on):")
	res := numfabric.RunPoolingWith(numfabric.EnginePacket, numfabric.DefaultPooling(4, true))
	for i, pct := range res.RankedPct() {
		if i%8 == 0 && i > 0 {
			fmt.Println()
		}
		fmt.Printf(" %5.1f%%", pct)
	}
	fmt.Println()

	fmt.Println()
	fmt.Println("Same scenario on the fluid engine (flow-level groups, same seed):")
	fl := numfabric.RunPoolingWith(numfabric.EngineFluid, numfabric.DefaultPooling(4, true))
	fmt.Printf("  4 subflows, pooling on: %5.1f%% of optimal, Jain %.3f\n",
		fl.TotalThroughputPct(), fl.JainIndex())
}
