package queue

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// TestSTFQFairnessProperty: for any pair of positive weights, two
// continuously backlogged flows receive service proportional to the
// weights within one packet of slack (the STFQ fairness bound).
func TestSTFQFairnessProperty(t *testing.T) {
	f := func(waRaw, wbRaw uint16) bool {
		wa := 1 + float64(waRaw%1000)
		wb := 1 + float64(wbRaw%1000)
		q := NewSTFQ(1 << 30)
		fa, fb := &netsim.Flow{ID: 1}, &netsim.Flow{ID: 2}
		const pkt = 1500
		const rounds = 300
		for i := 0; i < rounds; i++ {
			q.Enqueue(dataPkt(fa, int64(i), pkt, pkt/wa))
			q.Enqueue(dataPkt(fb, int64(i), pkt, pkt/wb))
		}
		served := map[*netsim.Flow]float64{}
		for i := 0; i < rounds; i++ {
			served[q.Dequeue().Flow]++
		}
		if served[fa] == 0 || served[fb] == 0 {
			// Extreme ratios can legitimately starve the light flow
			// within a bounded horizon: allowed iff ratio > rounds.
			ratio := math.Max(wa/wb, wb/wa)
			return ratio > rounds/4
		}
		got := served[fa] / served[fb]
		want := wa / wb
		rel := math.Abs(got-want) / want
		// Discrete packets bound accuracy by ~1/min(served).
		slack := 2/math.Min(served[fa], served[fb]) + 0.15
		return rel <= slack+2*want/rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSTFQWorkConservingProperty: the scheduler never idles while
// packets are queued, and conserves every accepted packet.
func TestSTFQWorkConservingProperty(t *testing.T) {
	f := func(sizes []uint16, weights []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		q := NewSTFQ(1 << 30)
		flows := []*netsim.Flow{{ID: 1}, {ID: 2}, {ID: 3}}
		enq := 0
		for i, sz := range sizes {
			w := 1.0
			if len(weights) > 0 {
				w = 1 + float64(weights[i%len(weights)]%100)
			}
			size := 64 + int(sz%1436)
			p := dataPkt(flows[i%3], int64(i), size, float64(size)/w)
			if q.Enqueue(p) == nil {
				enq++
			}
		}
		got := 0
		for q.Dequeue() != nil {
			got++
		}
		return got == enq && q.Bytes() == 0 && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSTFQVirtualTimeMonotoneProperty: dequeued virtual start tags
// never decrease within a busy period.
func TestSTFQVirtualTimeMonotoneProperty(t *testing.T) {
	f := func(ops []bool, weights []uint16) bool {
		q := NewSTFQ(1 << 30)
		flows := []*netsim.Flow{{ID: 1}, {ID: 2}}
		rng := sim.NewRNG(uint64(len(ops)) + 1)
		seq := int64(0)
		lastV := -1.0
		for _, enq := range ops {
			if enq || q.Len() == 0 {
				w := 1.0
				if len(weights) > 0 {
					w = 1 + float64(weights[int(seq)%len(weights)]%50)
				}
				q.Enqueue(dataPkt(flows[rng.Intn(2)], seq, 1500, 1500/w))
				seq++
				continue
			}
			p := q.Dequeue()
			if p == nil {
				continue
			}
			if q.Len() == 0 {
				// Busy period ended; virtual time resets.
				lastV = -1.0
				continue
			}
			if p.STFQStart < lastV {
				return false
			}
			lastV = p.STFQStart
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPFabricConservationProperty: pFabric's push-out queue never
// loses or duplicates packets: enqueued = dequeued + dropped.
func TestPFabricConservationProperty(t *testing.T) {
	f := func(prios []uint16) bool {
		q := NewPFabric(8 * 1500)
		flows := []*netsim.Flow{{ID: 1}, {ID: 2}}
		dropped := 0
		for i, pr := range prios {
			p := dataPkt(flows[i%2], int64(i), 1500, 0)
			p.Priority = float64(pr)
			dropped += len(q.Enqueue(p))
		}
		got := 0
		for q.Dequeue() != nil {
			got++
		}
		return got+dropped == len(prios) && q.Bytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSTFQHeapOrderProperty: popping everything yields packets in
// strict (virtual start, arrival) order, ties in the start tag
// included.
func TestSTFQHeapOrderProperty(t *testing.T) {
	f := func(starts []uint8) bool {
		var h stfqHeap
		for i, s := range starts {
			p := &netsim.Packet{}
			p.STFQStart = float64(s % 8)
			p.Arrival = uint64(i)
			h.push(p)
		}
		for prev := (*netsim.Packet)(nil); len(h) > 0; {
			p := h.pop()
			if prev != nil && (p.STFQStart < prev.STFQStart ||
				p.STFQStart == prev.STFQStart && p.Arrival <= prev.Arrival) {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkSTFQ is one enqueue plus one dequeue with the given number
// of packets already queued, spread over eight flows of weights 1–8.
// The drain row queues nothing else, so every dequeue empties the queue
// and ends a busy period: fig7-packet's regime, where a reset follows
// about two of every three enqueues.
func BenchmarkSTFQ(b *testing.B) {
	for _, backlog := range []int{0, 1, 16, 256} {
		name := fmt.Sprintf("backlog=%d", backlog)
		if backlog == 0 {
			name = "drain"
		}
		b.Run(name, func(b *testing.B) {
			q := NewSTFQ(1 << 30)
			flows := make([]*netsim.Flow, 8)
			for i := range flows {
				flows[i] = &netsim.Flow{ID: i}
			}
			pkt := func(i int) *netsim.Packet {
				f := flows[i%len(flows)]
				return dataPkt(f, int64(i), netsim.MTU, netsim.MTU/float64(1+f.ID))
			}
			for i := 0; i < backlog; i++ {
				q.Enqueue(pkt(i))
			}
			p := pkt(backlog)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(p)
				p = q.Dequeue()
			}
		})
	}
}
