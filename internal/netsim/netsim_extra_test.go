package netsim_test

import (
	"testing"

	"numfabric/internal/netsim"
	"numfabric/internal/sim"
)

func TestPacketPoolRecyclesCleanly(t *testing.T) {
	// Run a flow long enough that the packet pool recycles heavily;
	// every delivered payload byte must still be accounted exactly.
	net, path := line(dropTailFactory)
	const size = 1 << 20
	f := net.NewFlow(path, size)
	// Window-of-4 ack-clocked sender.
	f.Sender = &ackClockedSender{net: net, flow: f, window: 4}
	net.Engine.Schedule(0, f.Start)
	net.Engine.Run(sim.Forever)
	if !f.Done {
		t.Fatalf("flow incomplete: %d/%d", f.RcvdBytes, size)
	}
	if f.RcvdBytes != size {
		t.Fatalf("rcvd %d, want %d", f.RcvdBytes, size)
	}
}

// ackClockedSender sends one packet per ACK, keeping `window` packets
// outstanding.
type ackClockedSender struct {
	net    *netsim.Network
	flow   *netsim.Flow
	window int
}

func (s *ackClockedSender) Start() {
	for i := 0; i < s.window; i++ {
		s.sendNext()
	}
}

func (s *ackClockedSender) sendNext() {
	if s.flow.Pending() {
		s.flow.SendNext(nil)
	}
}

func (s *ackClockedSender) OnAck(p *netsim.Packet) { s.sendNext() }

func TestRemainingAccounting(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 10000)
	if f.Remaining() != 10000 {
		t.Errorf("remaining = %d", f.Remaining())
	}
	f.CumAcked = 4000
	if f.Remaining() != 6000 {
		t.Errorf("remaining = %d", f.Remaining())
	}
	f.CumAcked = 20000
	if f.Remaining() != 0 {
		t.Errorf("remaining clamped = %d", f.Remaining())
	}
	inf := net.NewFlow(path, 0)
	if inf.Remaining() != 1<<40 {
		t.Errorf("unbounded remaining = %d", inf.Remaining())
	}
}

func TestWrongRoutePanics(t *testing.T) {
	net, path := line(dropTailFactory)
	// Forward path deliberately broken: S→B, then A→S, which leaves A
	// though the first hop arrived at B.
	f := net.NewFlow([]int{path[1], path[0]}, 0)
	f.Sender = &ackClockedSender{net: net, flow: f, window: 1}
	net.Engine.Schedule(0, f.Start)
	defer func() {
		if recover() == nil {
			t.Error("inconsistent source route did not panic")
		}
	}()
	net.Engine.Run(sim.Forever)
}

func TestPayloadLenOnControl(t *testing.T) {
	p := &netsim.Packet{Kind: netsim.Ack, Size: 64}
	if p.PayloadLen() != 0 {
		t.Errorf("ack payload = %d", p.PayloadLen())
	}
	d := &netsim.Packet{Kind: netsim.Data, Size: 20} // < header
	if d.PayloadLen() != 0 {
		t.Errorf("degenerate payload = %d", d.PayloadLen())
	}
}

func TestConnectRequiresQueueFactory(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	a := net.NewNode("a")
	b := net.NewNode("b")
	defer func() {
		if recover() == nil {
			t.Error("Connect without QueueFactory did not panic")
		}
	}()
	net.Connect(a, b, 10*sim.Gbps, sim.Microsecond)
}

func TestFlowWithoutSenderPanics(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 0)
	defer func() {
		if recover() == nil {
			t.Error("Start without sender did not panic")
		}
	}()
	f.Start()
}

// TestConnectPairsCableDirections: the k-th Connect numbers its cable's
// two directions 2k and 2k+1, so link l's reverse is link l^1.
func TestConnectPairsCableDirections(t *testing.T) {
	net := netsim.NewNetwork(sim.NewEngine())
	net.QueueFactory = dropTailFactory
	nodes := []*netsim.Node{net.NewNode("a"), net.NewNode("b"), net.NewNode("c")}
	for k, pair := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 1}, {1, 1}} {
		a, b := nodes[pair[0]], nodes[pair[1]]
		ab, ba := net.Connect(a, b, 10*sim.Gbps, sim.Microsecond)
		if ab.LinkID != 2*k || ba.LinkID != 2*k+1 {
			t.Fatalf("Connect %d: ids %d, %d, want %d, %d", k, ab.LinkID, ba.LinkID, 2*k, 2*k+1)
		}
		if net.Links[ab.LinkID] != ab || net.Links[ba.LinkID] != ba || ab.Node != a || ab.Peer != b || ba.Node != b || ba.Peer != a {
			t.Fatalf("Connect %d: ports %v, %v are not a→b, b→a at their ids", k, ab, ba)
		}
	}
}
