// Package queue implements the per-port packet schedulers the paper's
// schemes need: drop-tail FIFO (DGD, RCP*), an ECN-marking FIFO
// (DCTCP), the STFQ weighted-fair queue at the heart of Swift (§5),
// and pFabric's priority queue.
package queue

import "numfabric/internal/netsim"

// DropTail is a byte-bounded FIFO queue. The paper provisions 1 MB per
// port "to avoid complications for comparing the convergence times of
// different algorithms which are sensitive to packet drops" (§6).
type DropTail struct {
	limit   int
	bytes   int
	pkts    fifo
	dropped []*netsim.Packet
}

// NewDropTail returns a FIFO bounded to limitBytes.
func NewDropTail(limitBytes int) *DropTail {
	return &DropTail{limit: limitBytes}
}

// Enqueue appends p, dropping it if the byte limit would be exceeded.
func (q *DropTail) Enqueue(p *netsim.Packet) []*netsim.Packet {
	if q.bytes+p.Size > q.limit {
		q.dropped = append(q.dropped[:0], p)
		return q.dropped
	}
	q.bytes += p.Size
	q.pkts.push(p)
	return nil
}

// Dequeue removes the head packet.
func (q *DropTail) Dequeue() *netsim.Packet {
	p := q.pkts.pop()
	if p != nil {
		q.bytes -= p.Size
	}
	return p
}

// Len returns the number of queued packets.
func (q *DropTail) Len() int { return q.pkts.len() }

// Bytes returns the queued byte count.
func (q *DropTail) Bytes() int { return q.bytes }

// fifo is a slice-backed ring buffer of packets.
type fifo struct {
	buf        []*netsim.Packet
	head, size int
}

func (f *fifo) push(p *netsim.Packet) {
	if f.size == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.size)%len(f.buf)] = p
	f.size++
}

func (f *fifo) pop() *netsim.Packet {
	if f.size == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) % len(f.buf)
	f.size--
	return p
}

func (f *fifo) len() int { return f.size }

func (f *fifo) grow() {
	n := len(f.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]*netsim.Packet, n)
	for i := 0; i < f.size; i++ {
		nb[i] = f.buf[(f.head+i)%len(f.buf)]
	}
	f.buf = nb
	f.head = 0
}
