package workload

import (
	"math"
	"testing"

	"numfabric/internal/sim"
)

func TestWebSearchShape(t *testing.T) {
	c := WebSearch()
	rng := sim.NewRNG(1)
	const n = 200000
	var under100KB, totalFlows int
	var bytesBig, bytesAll float64
	for i := 0; i < n; i++ {
		s := c.Sample(rng.Float64())
		totalFlows++
		if s < 100<<10 {
			under100KB++
		}
		bytesAll += float64(s)
		if s > 1<<20 {
			bytesBig += float64(s)
		}
	}
	// ~50% of flows < 100 KB (paper: "about 50%").
	frac := float64(under100KB) / float64(totalFlows)
	if frac < 0.40 || frac > 0.65 {
		t.Errorf("fraction under 100KB = %.2f, want ~0.5", frac)
	}
	// ~95% of bytes in flows > 1 MB.
	byteFrac := bytesBig / bytesAll
	if byteFrac < 0.80 || byteFrac > 0.99 {
		t.Errorf("byte share of >1MB flows = %.2f, want ~0.95", byteFrac)
	}
}

func TestEnterpriseShape(t *testing.T) {
	c := Enterprise()
	rng := sim.NewRNG(2)
	const n = 200000
	var under10KB, tiny int
	for i := 0; i < n; i++ {
		s := c.Sample(rng.Float64())
		if s <= 10<<10 {
			under10KB++
		}
		if s <= 3<<10 { // 1-2 packets
			tiny++
		}
	}
	if f := float64(under10KB) / n; f < 0.90 {
		t.Errorf("fraction <= 10KB = %.2f, want >= 0.9 (paper: 95%%)", f)
	}
	if f := float64(tiny) / n; f < 0.6 {
		t.Errorf("fraction of 1-2 packet flows = %.2f, want ~0.7", f)
	}
}

func TestSampleMonotoneInQuantile(t *testing.T) {
	c := WebSearch()
	prev := int64(0)
	for u := 0.01; u < 1.0; u += 0.01 {
		s := c.Sample(u)
		if s < prev {
			t.Fatalf("CDF sampling not monotone at u=%v", u)
		}
		prev = s
	}
}

func TestUniformCDF(t *testing.T) {
	c := Uniform(12345)
	for _, u := range []float64{0, 0.3, 0.99, 1} {
		if c.Sample(u) != 12345 {
			t.Errorf("Uniform sample at %v = %d", u, c.Sample(u))
		}
	}
	if math.Abs(c.Mean()-12345) > 1 {
		t.Errorf("mean = %v", c.Mean())
	}
}

func TestPoissonLoadTargeting(t *testing.T) {
	rng := sim.NewRNG(3)
	cfg := PoissonConfig{
		Hosts:    32,
		HostLink: 10 * sim.Gbps,
		Load:     0.5,
		CDF:      WebSearch(),
		Duration: 100 * sim.Millisecond,
	}
	arr := Poisson(cfg, rng)
	if len(arr) == 0 {
		t.Fatal("no arrivals")
	}
	var bytes float64
	for _, a := range arr {
		bytes += float64(a.Size)
		if a.Src == a.Dst {
			t.Fatal("self flow")
		}
		if a.Src < 0 || a.Src >= 32 || a.Dst < 0 || a.Dst >= 32 {
			t.Fatal("host out of range")
		}
	}
	offered := bytes * 8 / cfg.Duration.Seconds()
	want := 0.5 * 32 * 1e10
	if math.Abs(offered-want)/want > 0.2 {
		t.Errorf("offered load = %.3g, want ~%.3g", offered, want)
	}
	// Arrivals are time-ordered.
	for i := 1; i < len(arr); i++ {
		if arr[i].At < arr[i-1].At {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestPoissonMaxFlows(t *testing.T) {
	rng := sim.NewRNG(4)
	cfg := PoissonConfig{
		Hosts: 8, HostLink: 10 * sim.Gbps, Load: 0.9,
		CDF: Enterprise(), Duration: sim.Second, MaxFlows: 100,
	}
	arr := Poisson(cfg, rng)
	if len(arr) != 100 {
		t.Errorf("got %d arrivals, want capped at 100", len(arr))
	}
}

// TestPoissonZeroLoadEmpty: a zero (or negative) load offers no
// traffic and must return an empty schedule. Regression test: λ = 0
// made every inter-arrival gap +Inf, whose implementation-defined
// float→int64 conversion wrapped the clock negative, so the horizon
// check never tripped and Poisson looped forever.
func TestPoissonZeroLoadEmpty(t *testing.T) {
	for _, load := range []float64{0, -0.5} {
		cfg := PoissonConfig{
			Hosts: 8, HostLink: 10 * sim.Gbps, Load: load,
			CDF: WebSearch(), Duration: sim.Second,
		}
		if arr := Poisson(cfg, sim.NewRNG(1)); len(arr) != 0 {
			t.Errorf("Load=%v: got %d arrivals, want none", load, len(arr))
		}
	}
}

// TestPoissonHugeMeanTerminates: an astronomically large mean flow
// size drives λ toward zero; the schedule must still terminate (gaps
// past the horizon now saturate instead of wrapping) and every
// arrival must lie inside the horizon.
func TestPoissonHugeMeanTerminates(t *testing.T) {
	cfg := PoissonConfig{
		Hosts: 2, HostLink: 1, Load: 1e-12,
		CDF: Uniform(1 << 60), Duration: 100 * sim.Millisecond,
	}
	arr := Poisson(cfg, sim.NewRNG(2))
	for _, a := range arr {
		if a.At > sim.Time(cfg.Duration) {
			t.Fatalf("arrival at %v beyond horizon %v", a.At, cfg.Duration)
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	cfg := PoissonConfig{
		Hosts: 32, HostLink: 10 * sim.Gbps, Load: 0.6,
		CDF: WebSearch(), Duration: 50 * sim.Millisecond,
	}
	a := Poisson(cfg, sim.NewRNG(42))
	b := Poisson(cfg, sim.NewRNG(42))
	if len(a) == 0 {
		t.Fatal("no arrivals")
	}
	// Byte-identical schedules: every field of every arrival, in order.
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// And a different seed actually changes the schedule.
	c := Poisson(cfg, sim.NewRNG(43))
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// TestPoissonGenReplays: a copy of a generator taken before its first
// Next, given a copy of the RNG state it was made with, yields the
// schedule again; a generator past its end (by horizon or by MaxFlows)
// stays ended and draws nothing more, so whatever is drawn next from the
// RNG — the harness's ECMP picks — does not depend on how often Next was
// polled.
func TestPoissonGenReplays(t *testing.T) {
	for _, cfg := range []PoissonConfig{
		{Hosts: 32, HostLink: 10 * sim.Gbps, Load: 0.6, CDF: WebSearch(), Duration: 20 * sim.Millisecond},
		{Hosts: 32, HostLink: 10 * sim.Gbps, Load: 0.6, CDF: WebSearch(), Duration: sim.Second, MaxFlows: 300},
	} {
		rng := sim.NewRNG(9)
		from := *rng
		gen := NewPoisson(cfg, rng)
		again := *gen
		again.RNG = &from
		want := Poisson(cfg, sim.NewRNG(9))
		if len(want) < 100 {
			t.Fatalf("%d arrivals, want a schedule worth replaying", len(want))
		}
		for i, w := range want {
			a, okA := gen.Next()
			b, okB := again.Next()
			if !okA || !okB || a != w || b != w {
				t.Fatalf("arrival %d: generator %+v (%v), replay %+v (%v), Poisson %+v", i, a, okA, b, okB, w)
			}
		}
		if _, ok := gen.Next(); ok {
			t.Fatal("generator outlived Poisson's schedule")
		}
		after := *rng
		if _, ok := gen.Next(); ok || *rng != after {
			t.Error("an ended generator yielded, or drew from its RNG")
		}
	}
}

// nextInLine is PoissonGen.Next as it was written before Draw split it:
// the gap, the source, the destination and the size, drawn in line. It
// is the reference Draw and Next are held to.
func nextInLine(g *PoissonGen) (Arrival, bool) {
	if g.ended || !(g.lambda > 0) || (g.cfg.MaxFlows > 0 && g.n >= g.cfg.MaxFlows) {
		return Arrival{}, false
	}
	g.t = g.t.Add(sim.Seconds(g.RNG.ExpFloat64() / g.lambda))
	if g.t > sim.Time(g.cfg.Duration) {
		g.ended = true
		return Arrival{}, false
	}
	src := g.RNG.Intn(g.cfg.Hosts)
	dst := g.RNG.Intn(g.cfg.Hosts - 1)
	if dst >= src {
		dst++
	}
	g.n++
	return Arrival{At: g.t, Src: src, Dst: dst, Size: g.cfg.CDF.Sample(g.RNG.Float64())}, true
}

// TestDrawLeavesNextsState: n Draws and n Nexts leave the RNG state, the
// clock and the count exactly where n in-line draws leave them, and
// each Draw's arrival is the in-line one without the size, whose
// quantile it returns — through the end of the schedule (by horizon
// and by MaxFlows) and past it.
func TestDrawLeavesNextsState(t *testing.T) {
	for _, cfg := range []PoissonConfig{
		{Hosts: 32, HostLink: 10 * sim.Gbps, Load: 0.6, CDF: WebSearch(), Duration: 20 * sim.Millisecond},
		{Hosts: 128, HostLink: 10 * sim.Gbps, Load: 0.3, CDF: Enterprise(), Duration: sim.Second, MaxFlows: 500},
		{Hosts: 2, HostLink: sim.Gbps, Load: 0.9, CDF: Uniform(1500), Duration: sim.Millisecond},
	} {
		ref, next, draw := NewPoisson(cfg, sim.NewRNG(5)), NewPoisson(cfg, sim.NewRNG(5)), NewPoisson(cfg, sim.NewRNG(5))
		same := func(g *PoissonGen) bool {
			return *g.RNG == *ref.RNG && g.t == ref.t && g.n == ref.n && g.ended == ref.ended
		}
		n := 0
		for ; ; n++ {
			want, ok := nextInLine(ref)
			a, okA := next.Next()
			b, u, okB := draw.Draw()
			if okB {
				b.Size = cfg.CDF.Sample(u)
			}
			if okA != ok || okB != ok || a != want || b != want || !same(next) || !same(draw) {
				t.Fatalf("%s, step %d: in line %+v (%v), Next %+v (%v), Draw %+v (%v): generators differ",
					cfg.CDF.Name(), n, want, ok, a, okA, b, okB)
			}
			if !ok {
				break
			}
		}
		if n < 100 {
			t.Fatalf("%s: %d arrivals, want a schedule worth comparing", cfg.CDF.Name(), n)
		}
		if _, _, ok := draw.Draw(); ok || !same(draw) {
			t.Errorf("%s: an ended generator drew", cfg.CDF.Name())
		}
	}
}

func TestIncastShape(t *testing.T) {
	cfg := IncastConfig{
		Hosts: 32, Receiver: 7, Senders: 12, SizeBytes: 64 << 10,
		Bursts: 4, Interval: 2 * sim.Millisecond,
	}
	arr := Incast(cfg, sim.NewRNG(9))
	if len(arr) != cfg.Senders*cfg.Bursts {
		t.Fatalf("got %d arrivals, want %d", len(arr), cfg.Senders*cfg.Bursts)
	}
	for b := 0; b < cfg.Bursts; b++ {
		at := sim.Time(0).Add(sim.Duration(b) * cfg.Interval)
		seen := map[int]bool{}
		for i := 0; i < cfg.Senders; i++ {
			a := arr[b*cfg.Senders+i]
			if a.At != at {
				t.Errorf("burst %d flow %d at %v, want synchronized at %v", b, i, a.At, at)
			}
			if a.Dst != cfg.Receiver {
				t.Errorf("burst %d flow %d dst %d, want receiver %d", b, i, a.Dst, cfg.Receiver)
			}
			if a.Src == cfg.Receiver || a.Src < 0 || a.Src >= cfg.Hosts {
				t.Errorf("burst %d flow %d bad src %d", b, i, a.Src)
			}
			if seen[a.Src] {
				t.Errorf("burst %d reuses sender %d", b, a.Src)
			}
			seen[a.Src] = true
			if a.Size != cfg.SizeBytes {
				t.Errorf("burst %d flow %d size %d, want %d", b, i, a.Size, cfg.SizeBytes)
			}
		}
	}
}

func TestIncastSendersCapped(t *testing.T) {
	cfg := IncastConfig{
		Hosts: 8, Receiver: 0, Senders: 100, SizeBytes: 1 << 10,
		Bursts: 2, Interval: sim.Millisecond,
	}
	arr := Incast(cfg, sim.NewRNG(1))
	if len(arr) != (cfg.Hosts-1)*cfg.Bursts {
		t.Fatalf("got %d arrivals, want senders capped at hosts-1 (%d)",
			len(arr), (cfg.Hosts-1)*cfg.Bursts)
	}
}

func TestPermutationIsOneToOne(t *testing.T) {
	rng := sim.NewRNG(5)
	pairs := Permutation(64, rng)
	if len(pairs) != 32 {
		t.Fatalf("%d pairs", len(pairs))
	}
	dsts := map[int]bool{}
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= 32 {
			t.Errorf("sender %d out of first half", pr[0])
		}
		if pr[1] < 32 || pr[1] >= 64 {
			t.Errorf("receiver %d out of second half", pr[1])
		}
		if dsts[pr[1]] {
			t.Errorf("receiver %d reused", pr[1])
		}
		dsts[pr[1]] = true
	}
}

func TestRandomPairsValid(t *testing.T) {
	rng := sim.NewRNG(6)
	pairs := RandomPairs(16, 1000, rng)
	if len(pairs) != 1000 {
		t.Fatal("wrong count")
	}
	for _, pr := range pairs {
		if pr[0] == pr[1] {
			t.Fatal("self pair")
		}
		if pr[0] < 0 || pr[0] >= 16 || pr[1] < 0 || pr[1] >= 16 {
			t.Fatal("out of range")
		}
	}
}

func TestMeanReasonable(t *testing.T) {
	// Web-search mean is ~1.6 MB with these anchors; enterprise mean
	// is tens of KB.
	ws := WebSearch().Mean()
	if ws < 500<<10 || ws > 5<<20 {
		t.Errorf("websearch mean = %.0f bytes", ws)
	}
	ent := Enterprise().Mean()
	if ent < 2<<10 || ent > 200<<10 {
		t.Errorf("enterprise mean = %.0f bytes", ent)
	}
}

// BenchmarkPoissonCount: ns per arrival of a web-search schedule on a
// k = 8 fat-tree's 128 hosts, drawn by Draw (the counting pass) and by
// Next (Draw plus the size's interpolation).
func BenchmarkPoissonCount(b *testing.B) {
	cfg := PoissonConfig{Hosts: 128, HostLink: 10 * sim.Gbps, Load: 0.05, CDF: WebSearch(), Duration: sim.Duration(sim.Forever / 2)}
	b.Run("draw", func(b *testing.B) {
		g := NewPoisson(cfg, sim.NewRNG(1))
		for i := 0; i < b.N; i++ {
			if _, _, ok := g.Draw(); !ok {
				b.Fatal("schedule ended")
			}
		}
	})
	b.Run("next", func(b *testing.B) {
		g := NewPoisson(cfg, sim.NewRNG(1))
		for i := 0; i < b.N; i++ {
			if _, ok := g.Next(); !ok {
				b.Fatal("schedule ended")
			}
		}
	})
}
