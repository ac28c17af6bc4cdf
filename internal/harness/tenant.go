package harness

import (
	"numfabric/internal/core"
	"numfabric/internal/netsim"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/transport"
)

// Tenant groups arbitrary flows (any sources and destinations) under
// one utility of their aggregate rate: the "VM-level and tenant-level
// aggregates" generalization §8 lists as future work. Mechanically it
// is the resource-pooling machinery applied to flows that need not
// share endpoints — the Aggregate's share heuristic and the
// inactive-subflow residual rules carry over unchanged.
type Tenant struct {
	Name  string
	agg   *transport.Aggregate
	flows []*netsim.Flow
}

// NewTenant creates an empty tenant aggregate.
func NewTenant(name string) *Tenant {
	return &Tenant{Name: name, agg: transport.NewAggregate()}
}

// AddFlow starts a tenant flow between host indices under the tenant's
// shared utility u (a function of the tenant's TOTAL rate).
func (t *Tenant) AddFlow(topo *Topology, cfg SchemeConfig, src, dst, spine int, u core.Utility) *netsim.Flow {
	f := topo.NewFlow(src, dst, spine, 0)
	s := transport.NewNUMFabricSender(topo.Net, f, u, cfg.NUMFabric, cfg.BaseRTT)
	t.agg.Add(s)
	f.Meter = stats.NewRateMeter(200 * sim.Microsecond)
	t.flows = append(t.flows, f)
	topo.Net.Engine.Schedule(topo.Net.Engine.Now(), f.Start)
	return f
}

// Rate returns the tenant's aggregate receive rate in bits/second.
func (t *Tenant) Rate(now sim.Time) float64 {
	total := 0.0
	for _, f := range t.flows {
		total += f.Meter.RateAt(now)
	}
	return total
}

// Flows returns the tenant's flows.
func (t *Tenant) Flows() []*netsim.Flow { return t.flows }
