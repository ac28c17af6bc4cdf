// Package netsim is a packet-level discrete-event network simulator:
// the substrate standing in for ns-3 in the paper's evaluation. It
// models hosts, output-queued switches, links with serialization and
// propagation delay, pluggable per-port packet schedulers, and the
// in-band header fields NUMFabric and the baseline schemes use
// (§5: virtualPacketLen, interPacketTime, pathPrice, pathLen,
// normalizedResidual).
package netsim

import (
	"numfabric/internal/sim"
)

// Packet kinds.
type Kind uint8

const (
	// Data carries flow payload.
	Data Kind = iota
	// Ack is a control packet carrying receiver feedback; switches
	// treat it as a zero-virtual-length control packet (§5).
	Ack
)

// Standard sizes, matching common simulator settings: 1500-byte wire
// MTU with 40 bytes of headers, 64-byte ACKs.
const (
	MTU        = 1500
	HeaderSize = 40
	MSS        = MTU - HeaderSize
	AckSize    = 64
)

// Packet is the single packet type shared by every scheme. The header
// fields form a superset of the per-scheme headers; each transport
// reads and writes only its own fields (mirroring how each protocol
// would define its own wire format).
type Packet struct {
	Flow *Flow
	Kind Kind
	Seq  int64 // byte offset of the payload (Data) or the echoed Seq (Ack)
	Size int   // bytes on the wire

	// Source-routed path: Path[i] is the i-th egress port; Hop is the
	// index of the port the packet most recently traversed.
	Path []*Port
	Hop  int

	// --- NUMFabric fields (§5) ---
	// VirtualLen is virtualPacketLen = L/w, used by STFQ (Eq. 13);
	// zero for control packets.
	VirtualLen float64
	// PathPrice accumulates the per-link prices along the path: xWI's,
	// DGD's, or RCP*'s R_l^(-α) (Eq. 16).
	PathPrice float64
	// PathLen counts the links traversed.
	PathLen int
	// NormResidual is the flow's normalized residual
	// (U'(x̂) − pathPrice)/|L(i)| (Eq. 9), read by switches at enqueue.
	NormResidual float64

	// --- pFabric field ---
	// Priority is the scheduling priority (remaining flow size in
	// bytes; lower is served first).
	Priority float64

	// --- ECN (DCTCP) ---
	// CE is the congestion-experienced mark set by ECN queues.
	CE bool

	// PairProbe marks a packet sent back-to-back with its predecessor
	// (packet-pair probing [34]): the receiver-measured gap between a
	// probe and the packet before it reflects the flow's WFQ service
	// rate at the bottleneck — the flow's entitlement — even when the
	// flow's own sending rate is lower.
	PairProbe bool

	// --- ACK echo fields (receiver → sender feedback, §5) ---
	AckedBytes    int
	EchoPathPrice float64
	EchoPathLen   int
	// EchoIPT is the receiver-measured inter-packet arrival time; zero
	// until the second data packet arrives.
	EchoIPT sim.Duration
	EchoCE  bool
	// EchoPairProbe reflects the data packet's PairProbe flag.
	EchoPairProbe bool

	// SentAt is stamped by the sender for RTT estimation.
	SentAt sim.Time

	// STFQStart is the STFQ virtual start time, set by the queue at
	// enqueue and used to order it (Eq. 12).
	STFQStart float64
	// Arrival is a queue-local arrival sequence number: it orders FIFO
	// queues and breaks scheduling ties deterministically.
	Arrival uint64

	// due and next place the packet on a Port's wire: its arrival time
	// at the peer and the packet serialised after it.
	due  sim.Time
	next *Packet
	// pooled is set while the packet sits in the Network's free pool.
	pooled bool
}

// PayloadLen returns the payload byte count of a data packet.
func (p *Packet) PayloadLen() int {
	if p.Kind != Data {
		return 0
	}
	n := p.Size - HeaderSize
	if n < 0 {
		return 0
	}
	return n
}

// reset clears a packet for reuse from the pool.
func (p *Packet) reset() {
	*p = Packet{}
}
