package harness

import (
	"fmt"

	"numfabric/internal/core"
	"numfabric/internal/netsim"
	"numfabric/internal/queue"
	"numfabric/internal/transport"
)

// Scheme selects one of the transports under evaluation.
type Scheme int

// The schemes compared in §6.
const (
	NUMFabric Scheme = iota
	DGD
	RCP
	DCTCP
	PFabric
)

func (s Scheme) String() string {
	switch s {
	case NUMFabric:
		return "NUMFabric"
	case DGD:
		return "DGD"
	case RCP:
		return "RCP*"
	case DCTCP:
		return "DCTCP"
	case PFabric:
		return "pFabric"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// SchemeConfig carries every scheme's parameters; only the selected
// scheme's block is used.
type SchemeConfig struct {
	Scheme Scheme

	NUMFabric transport.NUMFabricParams
	DGD       transport.DGDParams
	RCP       transport.RCPParams
	DCTCP     transport.DCTCPParams
	PFabric   transport.PFabricParams

	// UseMultiQueue replaces exact STFQ with the §8 "small set of
	// queues with different weights" approximation (multiQueueBands
	// DRR bands with exponentially spaced weights).
	UseMultiQueue bool
}

// DefaultConfig returns a scheme config with Table 2 defaults for the
// given fabric.
func DefaultConfig(s Scheme, topo TopologyConfig) SchemeConfig {
	rtt := topo.BaseRTT()
	return SchemeConfig{
		Scheme:    s,
		NUMFabric: transport.DefaultNUMFabric(rtt),
		DGD:       transport.DefaultDGD(rtt, 0), // PriceRef set by SetUtilityHint
		RCP:       transport.DefaultRCP(rtt, 1),
		DCTCP:     transport.DefaultDCTCP(rtt),
		PFabric:   transport.DefaultPFabric(rtt),
	}
}

// SetUtilityHint calibrates price-scaled parameters (DGD's PriceRef)
// from a representative utility and per-flow fair-share guess, the
// analogue of the paper sweeping DGD's gains per workload.
func (c *SchemeConfig) SetUtilityHint(u core.Utility, fairShare float64) {
	c.DGD.PriceRef = transport.PriceRefFor(u, fairShare)
}

// The switch buffers: every scheme's per-port buffer (§6: 1 MB),
// DCTCP's ECN marking threshold K (~20 packets at 10 Gb/s), pFabric's
// small per-port buffer (~2 BDP, per the pFabric paper), and the DRR
// bands of the §8 multi-queue approximation.
const (
	BufferBytes        = 1 << 20
	ecnThresholdBytes  = 30000
	pfabricBufferBytes = 36000
	multiQueueBands    = 8
)

// QueueFactory returns the netsim queue constructor for the scheme.
func (c SchemeConfig) QueueFactory() func(*netsim.Port) netsim.Queue {
	switch c.Scheme {
	case NUMFabric:
		if c.UseMultiQueue {
			return func(p *netsim.Port) netsim.Queue {
				// Cover weights from 1e-4 of line rate up to line rate.
				minW := p.Rate.Float() * 1e-4
				ratio := 3.9 // ~4 decades over 8 bands
				return queue.NewMultiQueue(BufferBytes, multiQueueBands, minW, ratio)
			}
		}
		return func(p *netsim.Port) netsim.Queue { return queue.NewSTFQ(BufferBytes) }
	case DCTCP:
		return func(p *netsim.Port) netsim.Queue { return queue.NewECN(BufferBytes, ecnThresholdBytes) }
	case PFabric:
		return func(p *netsim.Port) netsim.Queue { return queue.NewPFabric(pfabricBufferBytes) }
	default: // DGD, RCP*
		return func(p *netsim.Port) netsim.Queue { return queue.NewDropTail(BufferBytes) }
	}
}

// AttachAgents installs the scheme's link agent on every directed link
// of the network. Call once, after the topology is built and before
// the simulation starts.
func (c SchemeConfig) AttachAgents(net *netsim.Network) {
	for _, port := range net.Links {
		switch c.Scheme {
		case NUMFabric:
			transport.NewXWIAgent(net, port, c.NUMFabric)
		case DGD:
			transport.NewDGDAgent(net, port, c.DGD)
		case RCP:
			transport.NewRCPAgent(net, port, c.RCP)
		case DCTCP, PFabric:
			// Queue-level mechanisms only; no periodic agent.
		}
	}
}

// AttachSender equips flow f with the scheme's host transport. u is
// the flow's utility (used by NUMFabric and DGD; RCP*'s α comes from
// its params; DCTCP and pFabric ignore it).
func (c SchemeConfig) AttachSender(net *netsim.Network, f *netsim.Flow, u core.Utility) netsim.Sender {
	switch c.Scheme {
	case NUMFabric:
		return transport.NewNUMFabricSender(net, f, u, c.NUMFabric)
	case DGD:
		return transport.NewDGDSender(net, f, u, c.DGD)
	case RCP:
		return transport.NewRCPSender(net, f, c.RCP)
	case DCTCP:
		return transport.NewDCTCPSender(net, f, c.DCTCP)
	case PFabric:
		return transport.NewPFabricSender(net, f, c.PFabric)
	default:
		panic("harness: unknown scheme")
	}
}
