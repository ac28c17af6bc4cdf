// Fluid resource pooling: multipath aggregate flow groups
// (fluid.Group) on a k-ary fat-tree. A Group pools N subflows — one
// per ECMP path — under a single utility of the group's TOTAL rate
// (Table 1 row 4), so the fabric allocates to the aggregate and the
// members shift load off congested paths on their own. This is the
// fluid engine's counterpart of the packet-level resource-pooling
// experiment (see examples/resourcepooling), reaching path counts and
// flow scales the packet simulator cannot.
//
// Unlike the other examples, this one drives the internal fluid
// engine directly (as the cmd/numfabric experiments do): the Group
// API is an engine-level building block, surfaced through the public
// facade via the experiment drivers (numfabric.RunPoolingWith,
// numfabric.RunFatTreePooling).
package main

import (
	"fmt"
	"time"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/harness"
)

func main() {
	// A k=4 fat-tree: 16 hosts, every link 10 Gb/s, four equal-cost
	// paths between hosts in different pods.
	ft := fluid.NewFatTree(4, 10e9)
	eng := fluid.NewEngine(ft.Net, fluid.Config{Allocator: fluid.NewXWI()})

	// Host 0 pools all four ECMP paths to host 8 into one aggregate
	// with a proportional-fair utility of the total rate.
	paths := ft.Routes(0, 8)
	fmt.Printf("host 0 -> host 8: %d equal-cost paths\n", len(paths))
	g := eng.AddGroup(paths, core.ProportionalFair(), 0)

	// A competing single-path flow collides with the group's first
	// path at host 8's NIC — both share the 10 Gb/s downlink.
	rival := eng.AddFlow(ft.Route(1, 8, 0), core.ProportionalFair(), 0, 0)

	for i := 0; i < 2000; i++ { // 200 ms of simulated time
		eng.Step()
	}
	fmt.Printf("group total %.2f Gbps (members:", g.Rate()/1e9)
	for _, m := range g.Members {
		fmt.Printf(" %.2f", m.Rate/1e9)
	}
	fmt.Printf("), rival %.2f Gbps\n", rival.Rate/1e9)
	fmt.Println("the group and the rival share host 8's NIC as two equals: ~5 Gbps each")

	// The same machinery at experiment scale: 1280 groups × 8 ECMP
	// subflows (10240 subflows) on a k=8 fat-tree, pooled vs not.
	fmt.Println("\ndense fat-tree scenario (1280 groups × 8 ECMP subflows, k=8):")
	for _, pooling := range []bool{false, true} {
		cfg := harness.DefaultFatTreePooling(pooling)
		cfg.Epochs = 150
		start := time.Now()
		res := harness.RunFatTreePooling(cfg)
		fmt.Printf("  pooling=%-5v total=%5.1f%% of optimal, Jain=%.3f  (%v)\n",
			pooling, res.TotalThroughputPct(), res.JainIndex(),
			time.Since(start).Round(time.Millisecond))
	}
}
