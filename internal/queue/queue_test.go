package queue

import (
	"testing"

	"numfabric/internal/netsim"
)

func dataPkt(f *netsim.Flow, seq int64, size int, vlen float64) *netsim.Packet {
	return &netsim.Packet{Flow: f, Kind: netsim.Data, Seq: seq, Size: size, VirtualLen: vlen}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(1 << 20)
	f := &netsim.Flow{}
	for i := 0; i < 10; i++ {
		if d := q.Enqueue(dataPkt(f, int64(i), 100, 0)); d != nil {
			t.Fatalf("unexpected drop at %d", i)
		}
	}
	if q.Len() != 10 || q.Bytes() != 1000 {
		t.Fatalf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
	for i := 0; i < 10; i++ {
		p := q.Dequeue()
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d: got %+v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("empty queue returned packet")
	}
}

func TestDropTailLimit(t *testing.T) {
	q := NewDropTail(250)
	f := &netsim.Flow{}
	q.Enqueue(dataPkt(f, 0, 100, 0))
	q.Enqueue(dataPkt(f, 1, 100, 0))
	d := q.Enqueue(dataPkt(f, 2, 100, 0))
	if len(d) != 1 || d[0].Seq != 2 {
		t.Fatalf("expected tail drop of seq 2, got %v", d)
	}
	if q.Bytes() != 200 {
		t.Fatalf("bytes = %d", q.Bytes())
	}
}

func TestDropTailRingGrowth(t *testing.T) {
	q := NewDropTail(1 << 30)
	f := &netsim.Flow{}
	// Interleave to exercise wrap-around.
	seq := int64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Enqueue(dataPkt(f, seq, 10, 0))
			seq++
		}
		for i := 0; i < 3; i++ {
			q.Dequeue()
		}
	}
	prev := int64(-1)
	for q.Len() > 0 {
		p := q.Dequeue()
		if p.Seq <= prev {
			t.Fatal("FIFO order violated after growth")
		}
		prev = p.Seq
	}
}

func TestSTFQWeightedService(t *testing.T) {
	// Two backlogged flows with weights 1 and 3: over a long run, flow
	// B should get ~3x the service of flow A.
	q := NewSTFQ(1 << 30)
	fa, fb := &netsim.Flow{ID: 1}, &netsim.Flow{ID: 2}
	const pkt = 1500
	wa, wb := 1.0, 3.0
	for i := 0; i < 400; i++ {
		q.Enqueue(dataPkt(fa, int64(i), pkt, pkt/wa))
		q.Enqueue(dataPkt(fb, int64(i), pkt, pkt/wb))
	}
	served := map[*netsim.Flow]int{}
	for i := 0; i < 400; i++ {
		p := q.Dequeue()
		served[p.Flow]++
	}
	ratio := float64(served[fb]) / float64(served[fa])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("service ratio = %v (A=%d B=%d), want ~3", ratio, served[fa], served[fb])
	}
}

func TestSTFQInOrderPerFlow(t *testing.T) {
	q := NewSTFQ(1 << 30)
	fa, fb := &netsim.Flow{ID: 1}, &netsim.Flow{ID: 2}
	for i := 0; i < 100; i++ {
		q.Enqueue(dataPkt(fa, int64(i), 1500, 1500))
		q.Enqueue(dataPkt(fb, int64(i), 1500, 500))
	}
	last := map[*netsim.Flow]int64{fa: -1, fb: -1}
	for q.Len() > 0 {
		p := q.Dequeue()
		if p.Seq <= last[p.Flow] {
			t.Fatalf("flow %d reordered: %d after %d", p.Flow.ID, p.Seq, last[p.Flow])
		}
		last[p.Flow] = p.Seq
	}
}

func TestSTFQControlPacketsPrompt(t *testing.T) {
	// A zero-virtual-length ACK enqueued behind a deep data backlog
	// should be served at the current virtual time, i.e. promptly.
	q := NewSTFQ(1 << 30)
	f := &netsim.Flow{ID: 1}
	for i := 0; i < 50; i++ {
		q.Enqueue(dataPkt(f, int64(i), 1500, 1500))
	}
	// Serve a few to advance virtual time.
	for i := 0; i < 5; i++ {
		q.Dequeue()
	}
	ack := &netsim.Packet{Flow: &netsim.Flow{ID: 2}, Kind: netsim.Ack, Size: 64, VirtualLen: 0}
	q.Enqueue(ack)
	p := q.Dequeue()
	if p != ack {
		t.Errorf("ack not served promptly; got flow %d seq %d", p.Flow.ID, p.Seq)
	}
}

func TestSTFQChangingWeightsTakeEffect(t *testing.T) {
	// The same flow raises its weight mid-stream (smaller VirtualLen);
	// its share against a fixed competitor should rise. This is the
	// packet-by-packet weighting Swift depends on (§4.1).
	q := NewSTFQ(1 << 30)
	fa, fb := &netsim.Flow{ID: 1}, &netsim.Flow{ID: 2}
	// Phase 1: equal weights.
	for i := 0; i < 100; i++ {
		q.Enqueue(dataPkt(fa, int64(i), 1500, 1500))
		q.Enqueue(dataPkt(fb, int64(i), 1500, 1500))
	}
	for i := 0; i < 200; i++ {
		q.Dequeue()
	}
	// Phase 2: fa quadruples its weight.
	for i := 100; i < 200; i++ {
		q.Enqueue(dataPkt(fa, int64(i), 1500, 1500.0/4))
		q.Enqueue(dataPkt(fb, int64(i), 1500, 1500))
	}
	servedA := 0
	for i := 0; i < 100; i++ {
		if q.Dequeue().Flow == fa {
			servedA++
		}
	}
	if servedA < 70 {
		t.Errorf("after weight change, flow A got %d/100 services, want ~80", servedA)
	}
}

func TestSTFQByteLimit(t *testing.T) {
	q := NewSTFQ(3000)
	f := &netsim.Flow{}
	q.Enqueue(dataPkt(f, 0, 1500, 1500))
	q.Enqueue(dataPkt(f, 1, 1500, 1500))
	if d := q.Enqueue(dataPkt(f, 2, 1500, 1500)); len(d) != 1 {
		t.Fatal("over-limit packet not dropped")
	}
}

func TestSTFQResetOnEmpty(t *testing.T) {
	q := NewSTFQ(1 << 30)
	f := &netsim.Flow{ID: 1}
	q.Enqueue(dataPkt(f, 0, 1500, 1e9)) // huge virtual length
	q.Dequeue()
	// After draining, virtual state resets; a new arrival must not
	// inherit the old flow's enormous finish tag.
	q.Enqueue(dataPkt(f, 1, 1500, 1500))
	p := q.Dequeue()
	if p.STFQStart != 0 {
		t.Errorf("virtual start after reset = %v, want 0", p.STFQStart)
	}
}

func TestECNMarksAboveThreshold(t *testing.T) {
	q := NewECN(1<<20, 3000)
	f := &netsim.Flow{}
	p1 := dataPkt(f, 0, 1500, 0)
	p2 := dataPkt(f, 1, 1500, 0)
	p3 := dataPkt(f, 2, 1500, 0)
	q.Enqueue(p1)
	q.Enqueue(p2)
	q.Enqueue(p3) // queue already holds 3000B >= K
	if p1.CE || p2.CE {
		t.Error("below-threshold packets marked")
	}
	if !p3.CE {
		t.Error("above-threshold packet not marked")
	}
}

func TestECNDoesNotMarkAcks(t *testing.T) {
	q := NewECN(1<<20, 0)
	ack := &netsim.Packet{Flow: &netsim.Flow{}, Kind: netsim.Ack, Size: 64}
	q.Enqueue(ack)
	if ack.CE {
		t.Error("control packet marked")
	}
}

func TestPFabricDequeueOrder(t *testing.T) {
	q := NewPFabric(1 << 20)
	f1 := &netsim.Flow{ID: 1} // large remaining
	f2 := &netsim.Flow{ID: 2} // small remaining
	for i := 0; i < 3; i++ {
		p := dataPkt(f1, int64(i), 1500, 0)
		p.Priority = 1e7
		q.Enqueue(p)
	}
	for i := 0; i < 3; i++ {
		p := dataPkt(f2, int64(i), 1500, 0)
		p.Priority = 1e4
		q.Enqueue(p)
	}
	// All of f2 (higher priority = smaller remaining) drains first.
	for i := 0; i < 3; i++ {
		p := q.Dequeue()
		if p.Flow != f2 || p.Seq != int64(i) {
			t.Fatalf("dequeue %d: flow %d seq %d", i, p.Flow.ID, p.Seq)
		}
	}
	if q.Dequeue().Flow != f1 {
		t.Fatal("f1 should drain after f2")
	}
}

func TestPFabricEarliestOfBestFlow(t *testing.T) {
	// Later packets of a flow carry smaller remaining size; pFabric
	// must still send the flow's earliest packet first.
	q := NewPFabric(1 << 20)
	f := &netsim.Flow{ID: 1}
	p0 := dataPkt(f, 0, 1500, 0)
	p0.Priority = 3000
	p1 := dataPkt(f, 1500, 1500, 0)
	p1.Priority = 1500 // more urgent value, but later data
	q.Enqueue(p0)
	q.Enqueue(p1)
	if got := q.Dequeue(); got != p0 {
		t.Errorf("earliest-of-flow rule violated: got seq %d", got.Seq)
	}
}

func TestPFabricPriorityDrop(t *testing.T) {
	q := NewPFabric(3 * 1500)
	fBig := &netsim.Flow{ID: 1}
	fSmall := &netsim.Flow{ID: 2}
	for i := 0; i < 3; i++ {
		p := dataPkt(fBig, int64(i), 1500, 0)
		p.Priority = 1e7
		q.Enqueue(p)
	}
	// Queue full; an urgent arrival must push out a big-flow packet.
	urgent := dataPkt(fSmall, 0, 1500, 0)
	urgent.Priority = 100
	dropped := q.Enqueue(urgent)
	if len(dropped) != 1 || dropped[0].Flow != fBig {
		t.Fatalf("expected big-flow drop, got %v", dropped)
	}
	if got := q.Dequeue(); got != urgent {
		t.Error("urgent packet should be at the head")
	}
}

func TestPFabricDropsArrivalWhenWorst(t *testing.T) {
	q := NewPFabric(2 * 1500)
	f := &netsim.Flow{ID: 1}
	for i := 0; i < 2; i++ {
		p := dataPkt(f, int64(i), 1500, 0)
		p.Priority = 100
		q.Enqueue(p)
	}
	worst := dataPkt(&netsim.Flow{ID: 2}, 0, 1500, 0)
	worst.Priority = 1e9
	dropped := q.Enqueue(worst)
	if len(dropped) != 1 || dropped[0] != worst {
		t.Fatalf("expected arrival dropped, got %v", dropped)
	}
}

func TestPFabricBytesAccounting(t *testing.T) {
	q := NewPFabric(1 << 20)
	f := &netsim.Flow{}
	q.Enqueue(dataPkt(f, 0, 1500, 0))
	q.Enqueue(dataPkt(f, 1, 700, 0))
	if q.Bytes() != 2200 || q.Len() != 2 {
		t.Fatalf("bytes=%d len=%d", q.Bytes(), q.Len())
	}
	q.Dequeue()
	q.Dequeue()
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Fatalf("after drain: bytes=%d len=%d", q.Bytes(), q.Len())
	}
}
