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
	lastF   finishTags
	h       stfqHeap
	arrival uint64
	dropped []*netsim.Packet
}

// NewSTFQ returns an STFQ scheduler bounded to limitBytes.
func NewSTFQ(limitBytes int) *STFQ {
	return &STFQ{limit: limitBytes}
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
		q.dropped = append(q.dropped[:0], p)
		return q.dropped
	}
	s := q.virtual
	tag, ok := q.lastF.lookup(p.Flow)
	if f := tag.f; ok && f > s {
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
	tag.f = s + p.VirtualLen
	p.STFQStart = s
	q.arrival++
	p.Arrival = q.arrival
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
	q.virtual = p.STFQStart
	if len(q.h) == 0 {
		// Busy period over: reset virtual time and forget finish tags.
		// Any flow's stale F can only matter while the server is busy;
		// with an empty queue the next busy period starts fresh, as in
		// the self-clocked fair queueing formulations.
		q.virtual = 0
		q.lastF.reset()
	}
	return p
}

// Len returns the number of queued packets.
func (q *STFQ) Len() int { return len(q.h) }

// Bytes returns the queued byte count.
func (q *STFQ) Bytes() int { return q.bytes }

// finishTags holds each flow's finish tag F (Eqs. 12–13) in a table
// probed linearly from a hash of Flow.ID, matched on *Flow (flows may
// share an ID). An entry is live iff its gen is the table's, so ending
// a busy period is gen++; no entry is removed alone, so probe chains
// have no holes. The table is nearly always tiny and mostly reset: on
// the first fig7-packet schedules of seeds 1 and 2 it held 0.97–1.08
// entries on average as a lookup began, never over 21 (8 or fewer at
// 97.7–98.3 % of lookups), and was reset 4.5 M times for 6.5 M
// enqueues (3.8 M for 5.3 M), so a reset has to cost O(1).
type finishTags struct {
	slots []finishTag // a power of two long, from 16; doubled at half load
	gen   uint64      // ≥ 1 once slots exist, so zeroed slots are dead
	live  int
}

type finishTag struct {
	flow *netsim.Flow
	gen  uint64
	f    float64
}

// lookup returns flow's entry and whether it held a tag; if it did
// not, the entry has just been claimed and its f is stale.
func (t *finishTags) lookup(flow *netsim.Flow) (*finishTag, bool) {
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int(uint64(flow.ID)*0x9e3779b97f4a7c15>>32) & mask; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.gen != t.gen {
			e.flow, e.gen = flow, t.gen
			t.live++
			return e, false
		}
		if e.flow == flow {
			return e, true
		}
	}
}

// reset forgets every tag.
func (t *finishTags) reset() { t.gen, t.live = t.gen+1, 0 }

// grow doubles the table (the first call makes it), moving live entries.
func (t *finishTags) grow() {
	old := t.slots
	t.slots, t.gen, t.live = make([]finishTag, max(2*len(old), 16)), max(t.gen, 1), 0
	for _, e := range old {
		if e.gen == t.gen {
			tag, _ := t.lookup(e.flow)
			tag.f = e.f
		}
	}
}

// stfqHeap is a binary min-heap of packets under the strict order
// (virtual start, arrival), hand-rolled for the reason sim's eventHeap
// is: every packet-hop pushes and pops one, and container/heap boxes
// each through an interface.
type stfqHeap []*netsim.Packet

func (h stfqHeap) less(i, j int) bool {
	si, sj := h[i].STFQStart, h[j].STFQStart
	if si != sj {
		return si < sj
	}
	return h[i].Arrival < h[j].Arrival
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
