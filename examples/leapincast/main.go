// Incast on the leap engine: bursts of synchronized senders
// converging on one receiver — the §6.1-style worst case for a
// transport's convergence — played through the event-driven
// flow-level engine (internal/leap via numfabric.RunIncastLeap).
//
// Incast is the leap engine's best case as a simulation workload:
// each burst is a single instant at which every rate changes, so the
// engine performs one allocation per burst, schedules every flow's
// completion exactly, and pays nothing for the quiet stretches in
// between — an epoch-based engine would step through thousands of
// identical allocations instead. The same demo also checks physics:
// N senders share the receiver's NIC, so the last flow of a burst
// finishes at N × size / line-rate (plus a base RTT).
package main

import (
	"fmt"
	"time"

	"numfabric"
)

func main() {
	cfg := numfabric.DefaultIncast() // 16 senders × 64 KB per burst → host 0
	res := numfabric.RunIncastLeap(cfg)

	ideal := time.Duration(float64(cfg.Senders) * float64(cfg.SizeBytes) * 8 /
		cfg.Topo.HostLink.Float() * float64(time.Second))
	fmt.Printf("%d bursts of %d senders × %d KB into host 0 (ideal drain ≈ %v + RTT)\n",
		cfg.Bursts, cfg.Senders, cfg.SizeBytes>>10, ideal.Round(time.Microsecond))
	fmt.Println("burst  completion (slowest flow)")
	for b, fct := range res.BurstFCTs {
		fmt.Printf("  %d    %v\n", b,
			time.Duration(fct*float64(time.Second)).Round(time.Microsecond))
	}
	if res.Unfinished > 0 {
		fmt.Printf("%d flows did not finish\n", res.Unfinished)
	}
}
