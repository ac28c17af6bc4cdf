package netsim_test

import (
	"math"
	"testing"

	"numfabric/internal/netsim"
	"numfabric/internal/queue"
	"numfabric/internal/sim"
	"numfabric/internal/stats"
)

// burstSender sends a fixed burst at start and records ACK feedback.
type burstSender struct {
	net   *netsim.Network
	flow  *netsim.Flow
	burst int
	setup func(p *netsim.Packet)
	acks  []ackInfo
}

type ackInfo struct {
	seq       int64
	ipt       sim.Duration
	pathPrice float64
	pathLen   int
	at        sim.Time
}

func (s *burstSender) Start() {
	for i := 0; i < s.burst; i++ {
		if s.flow.Size > 0 && s.flow.NextSeq >= s.flow.Size {
			return
		}
		payload := netsim.MSS
		if s.flow.Size > 0 && s.flow.Size-s.flow.NextSeq < int64(payload) {
			payload = int(s.flow.Size - s.flow.NextSeq)
		}
		seq := s.flow.NextSeq
		s.flow.NextSeq += int64(payload)
		s.flow.SendData(seq, payload, s.setup)
	}
}

func (s *burstSender) OnAck(p *netsim.Packet) {
	if p.Seq > s.flow.CumAcked {
		s.flow.CumAcked = p.Seq
	}
	s.acks = append(s.acks, ackInfo{
		seq: p.Seq, ipt: p.EchoIPT,
		pathPrice: p.EchoPathPrice, pathLen: p.EchoPathLen,
		at: s.net.Now(),
	})
}

// line builds A --rate--> S --rate--> B with the given per-hop
// propagation delay and returns the A→B path's link ids.
func line(qf func(*netsim.Port) netsim.Queue) (*netsim.Network, []int) {
	eng := sim.NewEngine()
	net := netsim.NewNetwork(eng)
	net.QueueFactory = qf
	a := net.NewNode("A")
	s := net.NewNode("S")
	b := net.NewNode("B")
	as, _ := net.Connect(a, s, 10*sim.Gbps, 2*sim.Microsecond)
	sb, _ := net.Connect(s, b, 10*sim.Gbps, 2*sim.Microsecond)
	return net, []int{as.LinkID, sb.LinkID}
}

func dropTailFactory(p *netsim.Port) netsim.Queue { return queue.NewDropTail(1 << 20) }

func TestSinglePacketDeliveryTiming(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 0)
	s := &burstSender{net: net, flow: f, burst: 1}
	f.Sender = s
	net.Engine.Schedule(0, f.Start)
	net.Engine.Run(sim.Forever)

	if len(s.acks) != 1 {
		t.Fatalf("got %d acks, want 1", len(s.acks))
	}
	// Data: two hops of tx(1500B@10G)=1.2us + 2us prop = 6.4us.
	// ACK: two hops of tx(64B@10G)=51.2ns + 2us prop = 4.1024us.
	want := sim.Time(2*(1200+2000)*1000 + 2*(51200+2000*1000))
	if s.acks[0].at != want {
		t.Errorf("ack at %d ps, want %d ps", int64(s.acks[0].at), int64(want))
	}
}

func TestInterPacketTimeMeasuredAtBottleneck(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 0)
	s := &burstSender{net: net, flow: f, burst: 3}
	f.Sender = s
	net.Engine.Schedule(0, f.Start)
	net.Engine.Run(sim.Forever)

	if len(s.acks) != 3 {
		t.Fatalf("got %d acks, want 3", len(s.acks))
	}
	if s.acks[0].ipt != 0 {
		t.Errorf("first ack should carry no inter-packet time, got %v", s.acks[0].ipt)
	}
	// Back-to-back 1500B at 10G arrive 1.2us apart.
	want := sim.Duration(1200 * sim.Nanosecond)
	for _, ai := range s.acks[1:] {
		if ai.ipt != want {
			t.Errorf("ipt = %v, want %v", ai.ipt, want)
		}
	}
}

// priceStamp is a test agent that adds a fixed price at dequeue of
// data packets (agents see all packets and must filter, like the real
// xWI agent does).
type priceStamp struct{ price float64 }

func (a *priceStamp) OnEnqueue(p *netsim.Packet) {}
func (a *priceStamp) OnDequeue(p *netsim.Packet) {
	if p.Kind != netsim.Data {
		return
	}
	p.PathPrice += a.price
	p.PathLen++
}

func TestPathPriceAccumulationAndEcho(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 0)
	f.Path[0].Agents = append(f.Path[0].Agents, &priceStamp{price: 1.25})
	f.Path[1].Agents = append(f.Path[1].Agents, &priceStamp{price: 2.5})
	s := &burstSender{net: net, flow: f, burst: 1}
	f.Sender = s
	net.Engine.Schedule(0, f.Start)
	net.Engine.Run(sim.Forever)

	if len(s.acks) != 1 {
		t.Fatalf("no ack")
	}
	if s.acks[0].pathPrice != 3.75 || s.acks[0].pathLen != 2 {
		t.Errorf("echo price=%v len=%d, want 3.75, 2", s.acks[0].pathPrice, s.acks[0].pathLen)
	}
}

func TestAgentsIgnoreAcks(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 0)
	stamp := &priceStamp{price: 1}
	// Attach to the reverse path: ACKs must NOT accumulate price.
	f.Rev[0].Agents = append(f.Rev[0].Agents, stamp)
	f.Rev[1].Agents = append(f.Rev[1].Agents, stamp)
	s := &burstSender{net: net, flow: f, burst: 1}
	f.Sender = s
	net.Engine.Schedule(0, f.Start)
	net.Engine.Run(sim.Forever)

	if s.acks[0].pathPrice != 0 {
		t.Errorf("ACK accumulated price %v through reverse-path agents", s.acks[0].pathPrice)
	}
}

func TestFlowCompletionAndFCT(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 3000) // 1460+1460+80 payload bytes
	s := &burstSender{net: net, flow: f, burst: 10}
	f.Sender = s
	var doneAt sim.Time
	f.OnComplete = func(fl *netsim.Flow) { doneAt = net.Now() }
	net.Engine.Schedule(0, f.Start)
	net.Engine.Run(sim.Forever)

	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if f.RcvdBytes != 3000 {
		t.Fatalf("received %d bytes, want 3000", f.RcvdBytes)
	}
	if doneAt == 0 || f.FCT() <= 0 {
		t.Fatal("completion time not recorded")
	}
	if f.EndTime != doneAt {
		t.Error("EndTime != completion callback time")
	}
}

func TestReceiverCumulativeAckOnGap(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 0)
	s := &burstSender{net: net, flow: f, burst: 0}
	f.Sender = s
	net.Engine.Schedule(0, func() {
		f.StartTime = net.Now()
		// In-order packet, then a gap (skipping one MSS).
		f.SendData(0, netsim.MSS, nil)
		f.SendData(int64(2*netsim.MSS), netsim.MSS, nil)
	})
	net.Engine.Run(sim.Forever)

	if len(s.acks) != 2 {
		t.Fatalf("got %d acks", len(s.acks))
	}
	if s.acks[0].seq != int64(netsim.MSS) {
		t.Errorf("first cum-ack = %d, want %d", s.acks[0].seq, netsim.MSS)
	}
	// The out-of-order packet is not buffered: cum-ack stays put.
	if s.acks[1].seq != int64(netsim.MSS) {
		t.Errorf("gap ack = %d, want %d (go-back-N)", s.acks[1].seq, netsim.MSS)
	}
	if f.RcvdBytes != int64(netsim.MSS) {
		t.Errorf("RcvdBytes = %d, want %d", f.RcvdBytes, netsim.MSS)
	}
}

func TestDropAccounting(t *testing.T) {
	// A queue that fits only one packet. In a 4-packet burst, the
	// first enters service immediately, the second queues, and the
	// remaining two are tail-dropped.
	tiny := func(p *netsim.Port) netsim.Queue { return queue.NewDropTail(1600) }
	net, path := line(tiny)
	var dropped int
	net.DropHook = func(p *netsim.Packet) { dropped++ }
	f := net.NewFlow(path, 0)
	s := &burstSender{net: net, flow: f, burst: 4}
	f.Sender = s
	net.Engine.Schedule(0, f.Start)
	net.Engine.Run(sim.Forever)

	if dropped != 2 || f.Drops != 2 {
		t.Errorf("dropped=%d flow.Drops=%d, want 2", dropped, f.Drops)
	}
	if f.Path[0].Drops != 2 {
		t.Errorf("port drop counter = %d, want 2", f.Path[0].Drops)
	}
	if len(s.acks) != 2 {
		t.Errorf("%d acks, want 2", len(s.acks))
	}
}

func TestRateMeterOnFlow(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 0)
	f.Meter = stats.NewRateMeter(20 * sim.Microsecond)
	s := &burstSender{net: net, flow: f, burst: 500}
	f.Sender = s
	net.Engine.Schedule(0, f.Start)
	net.Engine.Run(sim.Forever)

	got := f.Meter.Rate()
	if math.Abs(got-1e10)/1e10 > 0.02 {
		t.Errorf("metered rate = %v, want ~10G", got)
	}
}

func TestLinkCapacitiesVector(t *testing.T) {
	net, path := line(dropTailFactory)
	caps := net.Capacities()
	if len(caps) != 4 {
		t.Fatalf("got %d links, want 4", len(caps))
	}
	for _, c := range caps {
		if c != 1e10 {
			t.Errorf("capacity = %v, want 1e10", c)
		}
	}
	if path[0] < 0 || path[0] >= 4 {
		t.Errorf("LinkID out of range: %d", path[0])
	}
}

func TestPortUtilizationCounter(t *testing.T) {
	net, path := line(dropTailFactory)
	f := net.NewFlow(path, 0)
	s := &burstSender{net: net, flow: f, burst: 100}
	f.Sender = s
	net.Engine.Schedule(0, f.Start)
	end := net.Engine.Run(sim.Forever)
	// 100 packets back-to-back, then ACK tail: the bits sent are clearly
	// positive and no more than the line rate carries over the run.
	if bits := float64(f.Path[0].TxBytes) * 8; bits <= 0 || bits > f.Path[0].Rate.Float()*end.Sub(0).Seconds() {
		t.Errorf("%g bits sent in %v at %v", bits, end.Sub(0), f.Path[0].Rate)
	}
	if f.Path[0].TxPackets != 100 {
		t.Errorf("TxPackets = %d, want 100", f.Path[0].TxPackets)
	}
}
