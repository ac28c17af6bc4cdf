package queue

import (
	"testing"

	"numfabric/internal/netsim"
)

func TestMultiQueueBandMapping(t *testing.T) {
	q := NewMultiQueue(1<<20, 8, 1e7, 4)
	// Weight 1e7 -> band 0; weight 1e7*4^7 -> top band.
	p := dataPkt(&netsim.Flow{}, 0, 1500, 1500/1e7)
	if b := q.band(p); b != 0 {
		t.Errorf("low weight band = %d, want 0", b)
	}
	p2 := dataPkt(&netsim.Flow{}, 0, 1500, 1500/(1e7*16384))
	if b := q.band(p2); b != 7 {
		t.Errorf("high weight band = %d, want 7", b)
	}
	ack := &netsim.Packet{Flow: &netsim.Flow{}, Kind: netsim.Ack, Size: 64}
	if b := q.band(ack); b != 7 {
		t.Errorf("control band = %d, want top", b)
	}
}

func TestMultiQueueApproximatesWeightedService(t *testing.T) {
	// Two backlogged flows with 4x weight ratio land in adjacent bands
	// and should receive ~4x service.
	q := NewMultiQueue(1<<30, 8, 1e7, 4)
	fa, fb := &netsim.Flow{ID: 1}, &netsim.Flow{ID: 2}
	wa, wb := 1e7, 4e7
	for i := 0; i < 600; i++ {
		q.Enqueue(dataPkt(fa, int64(i), 1500, 1500/wa))
		q.Enqueue(dataPkt(fb, int64(i), 1500, 1500/wb))
	}
	served := map[*netsim.Flow]int{}
	for i := 0; i < 600; i++ {
		served[q.Dequeue().Flow]++
	}
	ratio := float64(served[fb]) / float64(served[fa])
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("service ratio = %.2f (A=%d B=%d), want ~4", ratio, served[fa], served[fb])
	}
}

func TestMultiQueueFIFOWithinBand(t *testing.T) {
	q := NewMultiQueue(1<<20, 4, 1e7, 4)
	f := &netsim.Flow{ID: 1}
	for i := 0; i < 50; i++ {
		q.Enqueue(dataPkt(f, int64(i), 1500, 1500/1e7))
	}
	prev := int64(-1)
	for q.Len() > 0 {
		p := q.Dequeue()
		if p.Seq <= prev {
			t.Fatal("in-band FIFO order violated")
		}
		prev = p.Seq
	}
}

func TestMultiQueueByteLimit(t *testing.T) {
	q := NewMultiQueue(3000, 4, 1e7, 4)
	f := &netsim.Flow{}
	q.Enqueue(dataPkt(f, 0, 1500, 1500/1e7))
	q.Enqueue(dataPkt(f, 1, 1500, 1500/1e7))
	if d := q.Enqueue(dataPkt(f, 2, 1500, 1500/1e7)); len(d) != 1 {
		t.Error("over-limit packet not dropped")
	}
	if q.Bytes() != 3000 || q.Len() != 2 {
		t.Errorf("bytes=%d len=%d", q.Bytes(), q.Len())
	}
}

func TestMultiQueueDrainsEverything(t *testing.T) {
	q := NewMultiQueue(1<<20, 8, 1e7, 4)
	f := &netsim.Flow{}
	weights := []float64{1e7, 5e7, 3e8, 9e9, 1e11}
	total := 0
	for i, w := range weights {
		for j := 0; j < 10; j++ {
			q.Enqueue(dataPkt(f, int64(i*100+j), 1000, 1000/w))
			total++
		}
	}
	got := 0
	for q.Dequeue() != nil {
		got++
	}
	if got != total {
		t.Errorf("drained %d of %d", got, total)
	}
	if q.Bytes() != 0 {
		t.Errorf("bytes = %d after drain", q.Bytes())
	}
}

func TestMultiQueueEmptyDequeue(t *testing.T) {
	q := NewMultiQueue(1<<20, 4, 1e7, 4)
	if q.Dequeue() != nil {
		t.Error("empty dequeue returned packet")
	}
	if len(q.bands) != 4 {
		t.Errorf("bands = %d", len(q.bands))
	}
}
