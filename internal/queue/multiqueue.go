package queue

import "numfabric/internal/netsim"

// MultiQueue is the practical WFQ approximation the paper's §8
// suggests exploring: "practical approximations of WFQ such as a small
// set of queues with different weights". Instead of a per-packet
// priority queue (which needs PIFO-style hardware), it uses N FIFO
// bands with exponentially spaced weights and serves them with
// weighted deficit round robin — implementable on any commodity
// switch with DRR/WRR support.
//
// An arriving packet is mapped to the band whose weight is nearest
// (in log space) to the packet's own weight (recovered from
// VirtualLen = L/w). Scheduling error relative to true WFQ is bounded
// by the band spacing ratio.
type MultiQueue struct {
	limit int
	bytes int
	// bands[i] serves weight ≈ minWeight·ratio^i.
	bands     []fifo
	bandBytes []int
	deficit   []int
	quantum   []int
	minWeight float64
	ratio     float64
	next      int
	// inTurn marks that band `next` has already been credited its
	// quantum for the current round-robin visit.
	inTurn  bool
	dropped []*netsim.Packet
}

// NewMultiQueue builds an n-band approximation covering weights
// [minWeight, minWeight·ratio^(n-1)], bounded to limitBytes.
// A typical configuration is n=8, ratio=4 covering ~5 decades.
func NewMultiQueue(limitBytes, n int, minWeight, ratio float64) *MultiQueue {
	if n < 1 {
		n = 1
	}
	if ratio <= 1 {
		ratio = 2
	}
	q := &MultiQueue{
		limit:     limitBytes,
		bands:     make([]fifo, n),
		bandBytes: make([]int, n),
		deficit:   make([]int, n),
		quantum:   make([]int, n),
		minWeight: minWeight,
		ratio:     ratio,
	}
	// DRR quantum proportional to band weight, floored at one MTU so
	// every band makes progress per round.
	w := 1.0
	for i := range q.quantum {
		q.quantum[i] = int(float64(netsim.MTU) * w)
		w *= ratio
		// Cap quanta so a high band cannot burst unboundedly in one
		// visit.
		if q.quantum[i] > 64*netsim.MTU {
			q.quantum[i] = 64 * netsim.MTU
		}
	}
	return q
}

// band maps a packet to its weight band.
func (q *MultiQueue) band(p *netsim.Packet) int {
	if p.VirtualLen <= 0 {
		// Control packets go to the top band (served promptly, like
		// STFQ's zero-virtual-length rule).
		return len(q.bands) - 1
	}
	w := float64(p.Size) / p.VirtualLen
	b := 0
	bw := q.minWeight
	for b < len(q.bands)-1 && w > bw*q.ratio/2 {
		b++
		bw *= q.ratio
	}
	return b
}

// Enqueue inserts p into its weight band (tail drop on overflow).
func (q *MultiQueue) Enqueue(p *netsim.Packet) []*netsim.Packet {
	if q.bytes+p.Size > q.limit {
		q.dropped = append(q.dropped[:0], p)
		return q.dropped
	}
	b := q.band(p)
	q.bands[b].push(p)
	q.bandBytes[b] += p.Size
	q.bytes += p.Size
	return nil
}

// Dequeue serves the bands deficit-round-robin with weight-
// proportional quanta. Each band's visit is credited its quantum once;
// the band is served while its deficit affords the head packet, then
// the server moves on (keeping leftover deficit, per standard DRR).
func (q *MultiQueue) Dequeue() *netsim.Packet {
	if q.bytes == 0 {
		return nil
	}
	n := len(q.bands)
	for scanned := 0; scanned < 2*n+1; scanned++ {
		b := q.next
		if q.bands[b].len() == 0 {
			q.deficit[b] = 0
			q.inTurn = false
			q.next = (b + 1) % n
			continue
		}
		if !q.inTurn {
			q.deficit[b] += q.quantum[b]
			q.inTurn = true
		}
		head := q.bands[b].buf[q.bands[b].head]
		if q.deficit[b] >= head.Size {
			p := q.bands[b].pop()
			q.deficit[b] -= p.Size
			q.bandBytes[b] -= p.Size
			q.bytes -= p.Size
			return p
		}
		q.inTurn = false
		q.next = (b + 1) % n
	}
	// Unreachable while bytes > 0: every band gets at least an MTU
	// quantum per visit. Kept as a safety net.
	for b := range q.bands {
		if q.bands[b].len() > 0 {
			p := q.bands[b].pop()
			q.bandBytes[b] -= p.Size
			q.bytes -= p.Size
			return p
		}
	}
	return nil
}

// Len returns the number of queued packets.
func (q *MultiQueue) Len() int {
	total := 0
	for i := range q.bands {
		total += q.bands[i].len()
	}
	return total
}

// Bytes returns the queued byte count.
func (q *MultiQueue) Bytes() int { return q.bytes }
