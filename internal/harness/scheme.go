package harness

import (
	"fmt"

	"numfabric/internal/core"
	"numfabric/internal/netsim"
	"numfabric/internal/queue"
	"numfabric/internal/sim"
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

// SchemeConfig carries every scheme's parameters; the selected scheme
// reads BaseRTT and its own fields.
type SchemeConfig struct {
	Scheme Scheme
	// BaseRTT is d0, the fabric's zero-queue RTT: every transport sizes
	// its BDP window or cap, its timeout, or (RCP*) Eq. 15's d from it.
	BaseRTT sim.Duration

	NUMFabric transport.NUMFabricParams
	// DGDPriceRef scales DGD's dimensionless gains into price units.
	// The packet drivers set it with transport.PriceRefFor from a
	// typical flow's utility at its expected fair share, the analogue
	// of the paper sweeping DGD's gains per workload.
	DGDPriceRef float64
	// RCPAlpha is the α-fairness exponent RCP* implements (Eq. 16);
	// the packet drivers set it to the scenario's α.
	RCPAlpha float64

	// UseMultiQueue replaces exact STFQ with the §8 "small set of
	// queues with different weights" approximation (multiQueueBands
	// DRR bands with exponentially spaced weights).
	UseMultiQueue bool
}

// DefaultConfig returns a scheme config with Table 2 defaults for the
// given fabric.
func DefaultConfig(s Scheme, topo TopologyConfig) SchemeConfig {
	return SchemeConfig{
		Scheme:    s,
		BaseRTT:   topo.BaseRTT(),
		NUMFabric: transport.DefaultNUMFabric(),
		RCPAlpha:  1,
	}
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
			transport.NewXWIAgent(port, c.NUMFabric)
		case DGD:
			transport.NewDGDAgent(port, c.DGDPriceRef, c.BaseRTT)
		case RCP:
			transport.NewRCPAgent(port, c.RCPAlpha, c.BaseRTT)
		case DCTCP, PFabric:
			// Queue-level mechanisms only; no periodic agent.
		}
	}
}

// AttachSender equips flow f with the scheme's host transport. u is
// the flow's utility for NUMFabric and DGD; RCP* is the DGD host at
// the α-fair utility of RCPAlpha, and DCTCP and pFabric ignore u.
func (c SchemeConfig) AttachSender(f *netsim.Flow, u core.Utility) netsim.Sender {
	switch c.Scheme {
	case NUMFabric:
		return transport.NewNUMFabricSender(f, u, c.NUMFabric, c.BaseRTT)
	case DGD:
		return transport.NewDGDSender(f, u, c.BaseRTT)
	case RCP:
		return transport.NewDGDSender(f, core.NewAlphaFair(c.RCPAlpha), c.BaseRTT)
	case DCTCP:
		return transport.NewDCTCPSender(f, c.BaseRTT)
	case PFabric:
		return transport.NewPFabricSender(f, c.BaseRTT)
	default:
		panic("harness: unknown scheme")
	}
}
