package netsim_test

import (
	"fmt"
	"strings"
	"testing"

	"numfabric/internal/netsim"
	"numfabric/internal/queue"
	"numfabric/internal/sim"
)

func stfqFactory(p *netsim.Port) netsim.Queue { return queue.NewSTFQ(1 << 20) }

func unitWeight(p *netsim.Packet) { p.VirtualLen = float64(p.Size) }

// quietSender ignores feedback; the tests below drive SendData
// themselves.
type quietSender struct{}

func (quietSender) Start()                 {}
func (quietSender) OnAck(p *netsim.Packet) {}

// hopLine is the two-hop line with one unbounded flow, and a round
// that forwards 32 data packets A→S→B and their ACKs back: 128
// packet-hops, 32 packets deep in the first queue and several on each
// wire at once.
func hopLine(qf func(*netsim.Port) netsim.Queue) (net *netsim.Network, round func()) {
	net, path := line(qf)
	f := net.NewFlow(path, 0)
	f.Sender = quietSender{}
	return net, func() {
		for i := 0; i < 32; i++ {
			f.SendData(f.NextSeq, netsim.MSS, unitWeight)
			f.NextSeq += netsim.MSS
		}
		net.Engine.Run(sim.Forever)
	}
}

func hops(net *netsim.Network) (n uint64) {
	for _, l := range net.Links {
		n += l.TxPackets
	}
	return n
}

func drops(net *netsim.Network) (n uint64) {
	for _, l := range net.Links {
		n += l.Drops
	}
	return n
}

// overflow is a byte limit below a round's burst: of its 32 packets one
// goes straight onto the wire, eight queue behind it and 23 are dropped,
// so a round is 9 × 4 packet-hops.
const overflow = 8 * netsim.MTU

var hopQueues = []struct {
	name string
	qf   func(*netsim.Port) netsim.Queue
	hops uint64 // packet-hops per round
}{
	{"STFQ", stfqFactory, 128},
	{"DropTail", dropTailFactory, 128},
	{"STFQ-overflow", func(*netsim.Port) netsim.Queue { return queue.NewSTFQ(overflow) }, 36},
	{"DropTail-overflow", func(*netsim.Port) netsim.Queue { return queue.NewDropTail(overflow) }, 36},
	{"MultiQueue-overflow", func(*netsim.Port) netsim.Queue { return queue.NewMultiQueue(overflow, 8, 1, 4) }, 36},
	{"PFabric-overflow", func(*netsim.Port) netsim.Queue { return queue.NewPFabric(overflow) }, 36},
}

// TestPacketHopAllocations is the packet engine's steady-state pin
// (make alloc-gate): once the packet pool, the event heap and the
// queues have grown to the working set, forwarding a packet — enqueue,
// dequeue, serialisation, propagation, delivery, the ACK — allocates
// nothing, and neither does dropping one at a full queue.
func TestPacketHopAllocations(t *testing.T) {
	for _, c := range hopQueues {
		t.Run(c.name, func(t *testing.T) {
			net, round := hopLine(c.qf)
			round() // warm
			before, dropped := hops(net), drops(net)
			allocs := testing.AllocsPerRun(50, round) // 50 measured rounds after one of its own
			if perRound := (hops(net) - before) / 51; perRound != c.hops {
				t.Fatalf("%d packet-hops per round, want %d", perRound, c.hops)
			}
			if perRound := (drops(net) - dropped) / 51; perRound != 32-c.hops/4 {
				t.Fatalf("%d drops per round, want %d", perRound, 32-c.hops/4)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per %d packet-hops, want 0", allocs, c.hops)
			}
		})
	}
}

func BenchmarkPortHop(b *testing.B) {
	for _, c := range hopQueues {
		b.Run(c.name, func(b *testing.B) {
			net, round := hopLine(c.qf)
			round()
			before := hops(net)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			n := float64(hops(net) - before)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/hop")
		})
	}
}

// arrivalLog records when each ACK reaches the flow's source.
type arrivalLog struct {
	net  *netsim.Network
	seqs []int64
	at   []sim.Time
}

func (l *arrivalLog) Start() {}
func (l *arrivalLog) OnAck(p *netsim.Packet) {
	l.seqs = append(l.seqs, p.Seq)
	l.at = append(l.at, l.net.Now())
}

// oneWire is a single 10 Gb/s cable B→A behind a FIFO queue, with a
// flow whose ACK direction it is: a packet handed to the returned
// port is serialised, propagates for delay, and is logged on arrival.
func oneWire(delay sim.Duration) (*netsim.Network, *netsim.Flow, *netsim.Port, *arrivalLog) {
	net := netsim.NewNetwork(sim.NewEngine())
	net.QueueFactory = dropTailFactory
	a, b := net.NewNode("A"), net.NewNode("B")
	ab, ba := net.Connect(a, b, 10*sim.Gbps, delay)
	f := net.NewFlow([]int{ab.LinkID}, 0)
	log := &arrivalLog{net: net}
	f.Sender = log
	return net, f, ba, log
}

// TestWireFIFOProperty: whatever the sizes (zero, a bare header, an
// ACK, a full MTU, anything between) and however many packets the
// wire holds at once, each packet arrives exactly Delay after its own
// serialisation ends, and in the order it was sent.
func TestWireFIFOProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		// From a fraction of one MTU transmission to thirty of them.
		delay := sim.Duration(1+rng.Intn(300)) * 120 * sim.Nanosecond
		net, f, wire, log := oneWire(delay)
		const n = 200
		var want []sim.Time
		var send, txDone sim.Time
		for i := 0; i < n; i++ {
			size := []int{0, netsim.HeaderSize, netsim.AckSize, netsim.MTU, rng.Intn(netsim.MTU + 1)}[rng.Intn(5)]
			// Mostly back to back, now and then a gap that drains the wire.
			if rng.Intn(8) == 0 {
				send = send.Add(sim.Duration(rng.Intn(80)) * sim.Microsecond)
			}
			pkt := &netsim.Packet{Flow: f, Kind: netsim.Ack, Seq: int64(i), Size: size, Path: f.Rev}
			net.Engine.Schedule(send, func() { wire.Send(pkt) })
			txDone = max(txDone, send).Add(wire.Rate.TxTime(size))
			want = append(want, txDone.Add(delay))
		}
		net.Engine.Run(sim.Forever)
		if len(log.at) != n {
			t.Fatalf("seed %d: %d arrivals, want %d", seed, len(log.at), n)
		}
		for i := range want {
			if log.seqs[i] != int64(i) || log.at[i] != want[i] {
				t.Fatalf("seed %d: arrival %d is packet %d at %v, want packet %d at %v",
					seed, i, log.seqs[i], log.at[i], i, want[i])
			}
		}
	}
}

// TestRateChangedMidRun: a Port.Rate rewritten mid-run (the pooling
// scenario steps a link's capacity this way) governs every
// serialisation that starts after it, bit-equal to TxTime at the new
// rate whether or not 10^12 is a multiple of it; a packet already
// serialising keeps the rate it started at.
func TestRateChangedMidRun(t *testing.T) {
	net, f, wire, log := oneWire(sim.Microsecond)
	steps := []struct {
		at   sim.Time
		rate sim.BitRate
	}{{0, 10 * sim.Gbps}, {5_000_001, 3 * sim.Gbps}, {11_000_003, 40 * sim.Gbps}, {17_000_007, 7 * sim.Gbps}}
	for _, s := range steps[1:] {
		net.Engine.Schedule(s.at, func() { wire.Rate = s.rate })
	}
	rateAt := func(at sim.Time) sim.BitRate {
		r := steps[0].rate
		for _, s := range steps[1:] {
			if s.at == at {
				t.Fatalf("a serialisation starts at the rate step %v", at)
			}
			if s.at < at {
				r = s.rate
			}
		}
		return r
	}
	var want []sim.Time
	var txDone sim.Time
	for i := 0; i < 60; i++ {
		send := sim.Time(i/2) * sim.Time(700*sim.Nanosecond)
		size := []int{netsim.MTU, 777, netsim.AckSize}[i%3]
		pkt := &netsim.Packet{Flow: f, Kind: netsim.Ack, Seq: int64(i), Size: size, Path: f.Rev}
		net.Engine.Schedule(send, func() { wire.Send(pkt) })
		start := max(txDone, send)
		txDone = start.Add(rateAt(start).TxTime(size))
		want = append(want, txDone.Add(sim.Microsecond))
	}
	net.Engine.Run(sim.Forever)
	if len(log.at) != len(want) {
		t.Fatalf("%d arrivals, want %d", len(log.at), len(want))
	}
	for i := range want {
		if log.at[i] != want[i] {
			t.Fatalf("packet %d arrived at %d ps, want %d ps", log.seqs[i], int64(log.at[i]), int64(want[i]))
		}
	}
}

// TestDelayLoweredMidRunPanics: arrival events carry no packet, so
// lowering a port's Delay while a packet is on its wire — the next
// packet's arrival would fire first — has to stop the run, not hand
// the wrong packet to the peer.
func TestDelayLoweredMidRunPanics(t *testing.T) {
	net, f, wire, _ := oneWire(10 * sim.Microsecond)
	for i := 0; i < 2; i++ {
		wire.Send(&netsim.Packet{Flow: f, Kind: netsim.Ack, Seq: int64(i), Size: netsim.MTU, Path: f.Rev})
	}
	// After the first serialisation (1.2 µs), before the second ends.
	net.Engine.Schedule(sim.Time(2*sim.Microsecond), func() { wire.Delay = sim.Microsecond })
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		net.Engine.Run(sim.Forever)
	}()
	if !strings.Contains(msg, "Port.Delay changed mid-run") {
		t.Fatalf("run ended with %q, want the Port.Delay panic", msg)
	}
}
