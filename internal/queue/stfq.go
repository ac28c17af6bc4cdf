package queue

import "numfabric/internal/netsim"

// STFQ is Start-Time Fair Queueing (Goyal et al. [20]), the WFQ
// approximation the NUMFabric switch sketch in §5 builds on. Each
// arriving packet gets a virtual start time
//
//	S(p_i^k) = max(V, F(p_i^(k-1)))            (Eq. 12)
//	F(p_i^k) = S(p_i^k) + L(p_i^k)/w_i         (Eq. 13)
//
// and packets are served in ascending virtual start time. The flow's
// weight arrives in-band: the packet's VirtualLen field carries
// L/w, set by the sender, so weights can change packet to packet —
// the key difference from classical WFQ that xWI exploits.
//
// Control packets (VirtualLen == 0) have F = S, so they are scheduled
// promptly without consuming virtual service.
type STFQ struct {
	limit   int
	bytes   int
	virtual float64
	lastF   map[*netsim.Flow]float64
	h       stfqHeap
	arrival uint64
}

// NewSTFQ returns an STFQ scheduler bounded to limitBytes.
func NewSTFQ(limitBytes int) *STFQ {
	return &STFQ{limit: limitBytes, lastF: make(map[*netsim.Flow]float64)}
}

// staleFactor is the staleness threshold, in MTU-sized packet times
// at the packet's current weight, beyond which an inherited finish
// tag is considered pathological and clamped. Legitimate WFQ memory
// (a backlogged flow's finish chain, a recently over-served flow's
// debt) leads virtual time by at most tens of packet times; a tag
// left behind by an era of orders-of-magnitude-smaller weight leads
// by millions and would starve the flow forever after its weight
// recovers (§4.1 lets weights change packet to packet, so this can
// genuinely happen). Clamping only far beyond the legitimate range
// preserves exact STFQ semantics in normal operation — including
// intra-flow packet order, which a tighter clamp would break for
// small tail fragments.
const staleFactor = 1000

// Enqueue inserts p, computing its virtual start time.
func (q *STFQ) Enqueue(p *netsim.Packet) []*netsim.Packet {
	if q.bytes+p.Size > q.limit {
		return []*netsim.Packet{p}
	}
	s := q.virtual
	if f, ok := q.lastF[p.Flow]; ok && f > s {
		if p.VirtualLen > 0 && p.Size > 0 {
			// Normalize to a full-MTU virtual length so small tail
			// fragments judge staleness on the same scale as their
			// full-size siblings.
			vlenMTU := p.VirtualLen * netsim.MTU / float64(p.Size)
			if f > q.virtual+staleFactor*vlenMTU {
				f = q.virtual + float64(len(q.h)+4)*vlenMTU
			}
		}
		s = f
	}
	q.lastF[p.Flow] = s + p.VirtualLen
	p.SetSTFQStart(s)
	q.arrival++
	p.SetArrival(q.arrival)
	q.bytes += p.Size
	q.h.push(p)
	return nil
}

// Dequeue removes the packet with the smallest virtual start time and
// advances the link's virtual time to it.
func (q *STFQ) Dequeue() *netsim.Packet {
	if len(q.h) == 0 {
		return nil
	}
	p := q.h.pop()
	q.bytes -= p.Size
	q.virtual = p.STFQStart()
	if len(q.h) == 0 {
		// Busy period over: reset virtual time and forget finish tags.
		// Any flow's stale F can only matter while the server is busy;
		// with an empty queue the next busy period starts fresh, as in
		// the self-clocked fair queueing formulations.
		q.virtual = 0
		clear(q.lastF)
	}
	return p
}

// Len returns the number of queued packets.
func (q *STFQ) Len() int { return len(q.h) }

// Bytes returns the queued byte count.
func (q *STFQ) Bytes() int { return q.bytes }

// stfqHeap is a binary min-heap of packets under the strict order
// (virtual start, arrival), hand-rolled for the reason sim's eventHeap
// is: every packet-hop pushes and pops one, and container/heap boxes
// each through an interface.
type stfqHeap []*netsim.Packet

func (h stfqHeap) less(i, j int) bool {
	si, sj := h[i].STFQStart(), h[j].STFQStart()
	if si != sj {
		return si < sj
	}
	return h[i].Arrival() < h[j].Arrival()
}

func (h *stfqHeap) push(p *netsim.Packet) {
	*h = append(*h, p)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *stfqHeap) pop() *netsim.Packet {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	for i := 0; ; {
		smallest := i
		if l := 2*i + 1; l < n && s.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}
