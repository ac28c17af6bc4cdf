package queue

import "numfabric/internal/netsim"

// PFabric is the pFabric switch queue (Alizadeh et al. [3]): a very
// small buffer with priority dropping and priority dequeueing on the
// packet's Priority field (remaining flow size; smaller is more
// urgent).
//
//   - Enqueue: if the buffer is full, drop the packet with the LARGEST
//     priority value (possibly the arrival itself).
//   - Dequeue: find the packet with the smallest priority value, then
//     transmit the EARLIEST queued packet of that packet's flow —
//     pFabric's rule that avoids intra-flow reordering.
//
// The linear scans are acceptable because pFabric buffers are tiny by
// design (a couple dozen packets).
type PFabric struct {
	limit   int
	bytes   int
	pkts    []*netsim.Packet
	arrival uint64
	dropped []*netsim.Packet
}

// NewPFabric returns a pFabric queue bounded to limitBytes (the
// pFabric paper uses ~2×BDP ≈ 36 KB at 10 Gb/s).
func NewPFabric(limitBytes int) *PFabric {
	return &PFabric{limit: limitBytes}
}

// Enqueue inserts p, evicting the lowest-priority packet on overflow.
func (q *PFabric) Enqueue(p *netsim.Packet) []*netsim.Packet {
	q.arrival++
	p.Arrival = q.arrival
	q.dropped = q.dropped[:0]
	for q.bytes+p.Size > q.limit {
		// Evict the worst packet (largest priority value). ACKs are
		// never evicted before data: they are tiny and losing them
		// stalls control loops.
		worst := -1
		for i, cand := range q.pkts {
			if cand.Kind != netsim.Data {
				continue
			}
			if worst == -1 || cand.Priority > q.pkts[worst].Priority ||
				(cand.Priority == q.pkts[worst].Priority && cand.Arrival < q.pkts[worst].Arrival) {
				worst = i
			}
		}
		if worst == -1 {
			// Only control packets queued; drop the arrival.
			q.dropped = append(q.dropped, p)
			return q.dropped
		}
		if p.Kind == netsim.Data && q.pkts[worst].Priority <= p.Priority {
			// The arrival itself is the worst packet.
			q.dropped = append(q.dropped, p)
			return q.dropped
		}
		victim := q.pkts[worst]
		q.pkts = append(q.pkts[:worst], q.pkts[worst+1:]...)
		q.bytes -= victim.Size
		q.dropped = append(q.dropped, victim)
	}
	q.pkts = append(q.pkts, p)
	q.bytes += p.Size
	return q.dropped
}

// Dequeue removes the next packet per pFabric's two-step rule.
func (q *PFabric) Dequeue() *netsim.Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	// Control packets go first: they carry no payload and pFabric
	// prioritizes them to keep feedback timely.
	best := -1
	for i, p := range q.pkts {
		if p.Kind != netsim.Data {
			if best == -1 || p.Arrival < q.pkts[best].Arrival {
				best = i
			}
		}
	}
	if best == -1 {
		// Step 1: most urgent data packet.
		for i, p := range q.pkts {
			if best == -1 || p.Priority < q.pkts[best].Priority ||
				(p.Priority == q.pkts[best].Priority && p.Arrival < q.pkts[best].Arrival) {
				best = i
			}
		}
		// Step 2: earliest packet of that flow.
		flow := q.pkts[best].Flow
		for i, p := range q.pkts {
			if p.Flow == flow && p.Kind == netsim.Data && p.Seq < q.pkts[best].Seq {
				best = i
			}
		}
	}
	p := q.pkts[best]
	q.pkts = append(q.pkts[:best], q.pkts[best+1:]...)
	q.bytes -= p.Size
	return p
}

// Len returns the number of queued packets.
func (q *PFabric) Len() int { return len(q.pkts) }

// Bytes returns the queued byte count.
func (q *PFabric) Bytes() int { return q.bytes }
