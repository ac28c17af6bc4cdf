package netsim

import (
	"testing"

	"numfabric/internal/sim"
)

// TestDoubleFreePanics: a packet freed twice would sit in the pool
// twice and be handed to two flows at once, so the second free
// panics; taking the packet out again makes it freeable again.
func TestDoubleFreePanics(t *testing.T) {
	n := NewNetwork(sim.NewEngine())
	p := n.allocPacket()
	p.Seq = 7
	n.freePacket(p)
	func() {
		defer func() {
			if r := recover(); r != "netsim: packet freed twice" {
				t.Errorf("second free: recovered %v, want the double-free panic", r)
			}
		}()
		n.freePacket(p)
	}()
	if len(n.pool) != 1 {
		t.Fatalf("pool holds %d packets after a refused double free, want 1", len(n.pool))
	}
	q := n.allocPacket()
	if q != p || q.Seq != 0 || q.pooled {
		t.Fatalf("reallocated packet %+v: want the freed one, cleared and not pooled", q)
	}
	n.freePacket(q)
}
