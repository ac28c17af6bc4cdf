package queue

import (
	"math"
	"testing"

	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

// FuzzSTFQ holds STFQ to a reference model — the scheduler written the
// plain way, its finish tags in a Go map keyed by *netsim.Flow and its
// queue a slice scanned for the minimum — under a byte-driven
// interleaving of enqueues from up to 32 flows (distinct flows sharing
// an ID among them), single dequeues and drains to empty (each ending a
// busy period), with sizes of zero, a bare header, an ACK, a tail
// fragment and a full MTU, weights across six decades (so an inherited
// tag can lead virtual time by far more than staleFactor packet times
// and the clamp fires), control packets, and a byte limit low enough to
// drop. Every enqueue must drop exactly what the model drops, every
// dequeued packet must be the model's, with its start tag's bits, and
// Len and Bytes must match after every step.
func FuzzSTFQ(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 4, 8, 0, 1, 0, 4, 0, 3, 1, 2, 4, 0, 8, 5, 5})
	f.Add([]byte{0, 0, 3, 0, 0, 0, 0, 3, 0, 250, 1, 0, 3, 0, 10, 2, 0, 3, 2, 6, 2, 0, 3, 1, 0, 3})
	f.Add([]byte{1, 0, 7, 4, 0, 1, 9, 4, 0, 2, 3, 4, 5, 1, 0, 7, 4, 5, 5, 5, 6})
	for _, data := range stfqSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newSTFQCheck(t, data)
		for len(c.data) > 0 {
			c.step()
			c.check()
		}
		for c.m.len() > 0 {
			c.dequeue()
		}
		c.check()
	})
}

// stfqSeeds are the corpus's 48 random inputs.
func stfqSeeds() [][]byte {
	rng := sim.NewRNG(1)
	seeds := make([][]byte, 48)
	for i := range seeds {
		seeds[i] = make([]byte, 64+rng.Intn(1024))
		for j := range seeds[i] {
			seeds[i][j] = byte(rng.Uint64())
		}
	}
	return seeds
}

// refSTFQ is the model: Eqs. 12–13 with the staleness clamp and the
// busy-period reset, on a map and a slice.
type refSTFQ struct {
	limit   int
	bytes   int
	virtual float64
	lastF   map[*netsim.Flow]float64
	queued  []refEntry
	arrival uint64
	clamps  int // enqueues whose inherited tag was clamped
}

type refEntry struct {
	p       *netsim.Packet
	start   float64
	arrival uint64
}

func (m *refSTFQ) len() int { return len(m.queued) }

// enqueue returns whether p was accepted and, if so, its start tag.
func (m *refSTFQ) enqueue(p *netsim.Packet) (float64, bool) {
	if m.bytes+p.Size > m.limit {
		return 0, false
	}
	s := m.virtual
	if f, ok := m.lastF[p.Flow]; ok && f > s {
		if p.VirtualLen > 0 && p.Size > 0 {
			vlenMTU := p.VirtualLen * netsim.MTU / float64(p.Size)
			if f > m.virtual+staleFactor*vlenMTU {
				f = m.virtual + float64(len(m.queued)+4)*vlenMTU
				m.clamps++
			}
		}
		s = f
	}
	m.lastF[p.Flow] = s + p.VirtualLen
	m.arrival++
	m.bytes += p.Size
	m.queued = append(m.queued, refEntry{p, s, m.arrival})
	return s, true
}

// dequeue removes the entry with the least (start, arrival).
func (m *refSTFQ) dequeue() refEntry {
	best := 0
	for i, e := range m.queued {
		b := m.queued[best]
		if e.start < b.start || e.start == b.start && e.arrival < b.arrival {
			best = i
		}
	}
	e := m.queued[best]
	m.queued = append(m.queued[:best], m.queued[best+1:]...)
	m.bytes -= e.p.Size
	m.virtual = e.start
	if len(m.queued) == 0 {
		m.virtual = 0
		clear(m.lastF)
	}
	return e
}

// stfqCheck plays one fuzz input against an STFQ and the model.
type stfqCheck struct {
	t     *testing.T
	q     *STFQ
	m     *refSTFQ
	data  []byte
	flows []*netsim.Flow
	seq   int64
}

func newSTFQCheck(t *testing.T, data []byte) *stfqCheck {
	c := &stfqCheck{t: t, data: data}
	// A limit from two MTUs (drops are common) to effectively unbounded.
	limit := (2 + int(c.next()%32)) * netsim.MTU
	if c.next()%4 == 0 {
		limit = 1 << 30
	}
	c.q = NewSTFQ(limit)
	c.m = &refSTFQ{limit: limit, lastF: map[*netsim.Flow]float64{}}
	// 32 distinct flows over 8 IDs: a table keyed by ID alone merges
	// flows 0, 8, 16 and 24.
	c.flows = make([]*netsim.Flow, 32)
	for i := range c.flows {
		c.flows[i] = &netsim.Flow{ID: i % 8}
	}
	return c
}

// next consumes one byte of input; an exhausted input reads as zeros.
func (c *stfqCheck) next() byte {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return b
}

// packet draws one packet: a flow (biased towards a few, so tags
// chain), a size, and a weight 10^k·(1 + frac), k ∈ [−3, 3), carried in
// VirtualLen = L/w as the senders write it — or VirtualLen 0 (a control
// packet), or a positive VirtualLen on a zero-size packet.
func (c *stfqCheck) packet() *netsim.Packet {
	fl := c.flows[int(c.next())%len(c.flows)]
	if b := c.next(); b < 128 {
		fl = c.flows[b%4]
	}
	var size int
	switch c.next() % 5 {
	case 0:
		size = 0
	case 1:
		size = netsim.HeaderSize
	case 2:
		size = netsim.AckSize
	case 3:
		size = 1 + int(c.next())*(netsim.MTU-1)/256 // a tail fragment
	case 4:
		size = netsim.MTU
	}
	wb := c.next()
	w := math.Pow(10, float64(int(wb%6)-3)) * (1 + float64(wb/6)/43)
	vlen := float64(size) / w
	switch c.next() % 8 {
	case 0:
		vlen = 0
	case 1:
		if size == 0 {
			vlen = netsim.MTU / w
		}
	}
	c.seq++
	return &netsim.Packet{Flow: fl, Kind: netsim.Data, Seq: c.seq, Size: size, VirtualLen: vlen}
}

func (c *stfqCheck) enqueue(p *netsim.Packet) {
	want, ok := c.m.enqueue(p)
	dropped := c.q.Enqueue(p)
	if !ok {
		if len(dropped) != 1 || dropped[0] != p {
			c.t.Fatalf("packet %d (%d bytes onto %d of %d) returned %v, want it dropped",
				p.Seq, p.Size, c.q.Bytes(), c.m.limit, dropped)
		}
		return
	}
	if len(dropped) != 0 {
		c.t.Fatalf("packet %d accepted by the model, dropped %v", p.Seq, dropped)
	}
	if got := p.STFQStart; math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("packet %d (flow %p, id %d): start tag %v, model %v", p.Seq, p.Flow, p.Flow.ID, got, want)
	}
}

func (c *stfqCheck) dequeue() {
	got := c.q.Dequeue()
	if c.m.len() == 0 {
		if got != nil {
			c.t.Fatalf("empty queue returned packet %d", got.Seq)
		}
		return
	}
	want := c.m.dequeue()
	if got != want.p {
		c.t.Fatalf("dequeued packet %v, model %d (start %v, arrival %d)", got, want.p.Seq, want.start, want.arrival)
	}
	if math.Float64bits(got.STFQStart) != math.Float64bits(want.start) {
		c.t.Fatalf("packet %d dequeued with start %v, model %v", got.Seq, got.STFQStart, want.start)
	}
}

// step plays one operation.
func (c *stfqCheck) step() {
	switch c.next() % 8 {
	case 0, 1, 2:
		c.enqueue(c.packet())
	case 3:
		// A burst from one flow: its tags chain within the burst.
		p := c.packet()
		for n := 1 + int(c.next()%8); n > 0; n-- {
			c.enqueue(p)
			p = &netsim.Packet{Flow: p.Flow, Kind: p.Kind, Seq: c.seq + 1, Size: p.Size, VirtualLen: p.VirtualLen}
			c.seq++
		}
	case 4, 5:
		c.dequeue()
	case 6:
		// Drain: the busy period ends and the tags are forgotten.
		for c.m.len() > 0 {
			c.dequeue()
		}
		c.dequeue()
	case 7:
		// A dequeue that may empty the queue followed at once by an
		// enqueue, fig7's common case.
		c.dequeue()
		c.enqueue(c.packet())
	}
}

func (c *stfqCheck) check() {
	if c.q.Len() != c.m.len() || c.q.Bytes() != c.m.bytes {
		c.t.Fatalf("Len %d Bytes %d, model %d and %d", c.q.Len(), c.q.Bytes(), c.m.len(), c.m.bytes)
	}
}

// TestFuzzSTFQCorpusReachesTheClamp: the seeded corpus drives the
// staleness clamp, so replaying it under go test checks the clamp too.
func TestFuzzSTFQCorpusReachesTheClamp(t *testing.T) {
	clamps, inputs := 0, 0
	for _, data := range stfqSeeds() {
		c := newSTFQCheck(t, data)
		for len(c.data) > 0 {
			c.step()
		}
		if c.m.clamps > 0 {
			inputs++
		}
		clamps += c.m.clamps
	}
	if inputs < 5 {
		t.Fatalf("the clamp fired %d times in %d of the seeded inputs, want at least 5 inputs", clamps, inputs)
	}
	t.Logf("the clamp fired %d times in %d of the seeded inputs", clamps, inputs)
}
