package sim

import "testing"

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{500, 100, 300, 200, 400} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run(Forever)
	want := []Time{100, 200, 300, 400, 500}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(42, func() { got = append(got, i) })
	}
	e.Run(Forever)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: got %v", got)
		}
	}
}

func TestEngineNowAdvances(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		if e.Now() != 100 {
			t.Errorf("Now() = %v inside event, want 100", e.Now())
		}
		e.After(50, func() {
			if e.Now() != 150 {
				t.Errorf("Now() = %v, want 150", e.Now())
			}
		})
	})
	e.Run(Forever)
	if e.Now() != 150 {
		t.Errorf("final Now() = %v, want 150", e.Now())
	}
}

func TestEngineRunUntilStopsEarly(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(100, func() { ran++ })
	e.Schedule(200, func() { ran++ })
	e.Run(150)
	if ran != 1 {
		t.Fatalf("ran %d events before t=150, want 1", ran)
	}
	if e.queue.len() != 1 {
		t.Fatalf("pending = %d, want 1", e.queue.len())
	}
	e.Run(Forever)
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

// TestEngineRunNeverRewindsTheClock: a Run whose until is behind the
// clock runs nothing and leaves the clock — and so the earliest instant
// Schedule accepts — where it was.
func TestEngineRunNeverRewindsTheClock(t *testing.T) {
	cases := []struct {
		name    string
		events  []Time
		runs    []Time
		wantNow Time
		wantRan int
	}{
		{"behind an early return", []Time{100}, []Time{50, 20}, 50, 0},
		{"behind an executed event", []Time{40, 100}, []Time{60, 45}, 60, 1},
		{"at the clock", []Time{100}, []Time{50, 50}, 50, 0},
		{"negative", []Time{10}, []Time{-1}, 0, 0},
		{"forward again", []Time{100}, []Time{50, 20, 150}, 100, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			ran := 0
			for _, at := range c.events {
				e.Schedule(at, func() { ran++ })
			}
			for _, until := range c.runs {
				e.Run(until)
			}
			if e.Now() != c.wantNow || ran != c.wantRan || e.queue.len() != len(c.events)-ran {
				t.Fatalf("Now() = %d after %d of %d events, want %d after %d",
					e.Now(), ran, len(c.events), c.wantNow, c.wantRan)
			}
			if c.wantNow > 0 {
				defer func() {
					if recover() == nil {
						t.Errorf("Schedule(%d) accepted with the clock at %d", c.wantNow-1, c.wantNow)
					}
				}()
				e.Schedule(c.wantNow-1, func() {})
			}
		})
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	e.Run(Forever)
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run(Forever)
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine()
	var fires []Time
	e.Every(10, 5, func() { fires = append(fires, e.Now()) })
	e.Run(22)
	want := []Time{10, 15, 20}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times, want %d: %v", len(fires), len(want), fires)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

// TestEngineSplitRunMatchesOneRun: stopping at until boundaries — some
// between events, some on an event's own instant, some past the last
// event — leaves every pending event queued and runs the same events
// in the same order as one uninterrupted Run.
func TestEngineSplitRunMatchesOneRun(t *testing.T) {
	play := func(boundaries []Time) (order []int) {
		e := NewEngine()
		rng := NewRNG(7)
		scheduled := 0
		var spawn func(id, depth int) func()
		spawn = func(id, depth int) func() {
			scheduled++
			return func() {
				order = append(order, id)
				if depth < 3 {
					// One child at this very instant, one later.
					e.After(0, spawn(id*3+1, depth+1))
					e.After(Duration(rng.Intn(40)), spawn(id*3+2, depth+1))
				}
			}
		}
		for i := 0; i < 30; i++ {
			e.Schedule(Time(rng.Intn(100)), spawn(1000*(i+1), 0))
		}
		for _, until := range boundaries {
			e.Run(until)
			if e.queue.len() > 0 && e.Now() != until {
				t.Fatalf("Run(%d) left the clock at %d with events pending", until, e.Now())
			}
			if e.queue.len() != scheduled-len(order) {
				t.Fatalf("after Run(%d): %d pending, want %d scheduled − %d executed",
					until, e.queue.len(), scheduled, len(order))
			}
		}
		e.Run(Forever)
		if e.queue.len() != 0 || len(order) != scheduled {
			t.Fatalf("%d pending, %d of %d executed after Run(Forever)", e.queue.len(), len(order), scheduled)
		}
		return order
	}
	whole := play(nil)
	var boundaries []Time
	for until := Time(0); until < 260; until += 7 {
		boundaries = append(boundaries, until, until) // a second call at a boundary runs nothing
	}
	split := play(boundaries)
	if len(split) != len(whole) {
		t.Fatalf("split run executed %d events, one run %d", len(split), len(whole))
	}
	for i := range whole {
		if split[i] != whole[i] {
			t.Fatalf("event %d: split run executed %d, one run %d", i, split[i], whole[i])
		}
	}
}

func TestTxTimeExactness(t *testing.T) {
	cases := []struct {
		rate  BitRate
		bytes int
		want  Duration
	}{
		{10 * Gbps, 1500, 1200 * Nanosecond},
		{40 * Gbps, 1500, 300 * Nanosecond},
		{10 * Gbps, 64, Duration(51200)}, // 51.2 ns in ps
		{1 * Gbps, 1250, 10 * Microsecond},
	}
	for _, c := range cases {
		if got := c.rate.TxTime(c.bytes); got != c.want {
			t.Errorf("TxTime(%v, %d) = %v ps, want %v ps", c.rate, c.bytes, int64(got), int64(c.want))
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds produced %d/1000 equal values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(2)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Errorf("exp mean = %v, want ~1.0", mean)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// BenchmarkEngineScheduleRun piles up to 1,024 events, 0–63 ps apart and
// pushed out of order, into what is one calendar bucket: the event set's
// worst case, not the packet engine's traffic (BenchmarkEngineGapMix is).
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(i%64), func() {})
		if e.queue.len() > 1024 {
			e.Run(e.Now() + 64)
		}
	}
	e.Run(Forever)
}

// BenchmarkEngineGapMix replays the packet engine's event traffic as
// counted over a 1,000-flow fig7 play: 675 events pending (the play's
// mean), each scheduling its successor at a gap drawn from the play's
// mix — 61 % in [2^20, 2^21) ps (serialisations), 13.5 % in
// [2^15, 2^16), 10 % in [2^13, 2^14), 10 % in [2^18, 2^19), 5 % in
// [2^24, 2^25) and 0.5 % in [2^26, 2^27). One op is one event.
func BenchmarkEngineGapMix(b *testing.B) {
	rng := NewRNG(1)
	gaps := make([]Duration, 1<<12)
	for i := range gaps {
		var exp int
		switch p := rng.Intn(1000); {
		case p < 610:
			exp = 20
		case p < 745:
			exp = 15
		case p < 845:
			exp = 13
		case p < 945:
			exp = 18
		case p < 995:
			exp = 24
		default:
			exp = 26
		}
		gaps[i] = Duration(1)<<exp + Duration(rng.Intn(1<<exp))
	}
	e := NewEngine()
	left, next := 0, 0
	var fire func()
	fire = func() {
		e.After(gaps[next&(len(gaps)-1)], fire)
		next++
		if left--; left == 0 {
			e.Stop()
		}
	}
	for i := 0; i < 675; i++ {
		e.After(gaps[i], fire)
	}
	left = 1 << 20 // reach the steady state before timing
	e.Run(Forever)
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N
	e.Run(Forever)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
