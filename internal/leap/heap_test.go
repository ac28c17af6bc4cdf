package leap

import (
	"fmt"
	"slices"
	"testing"
)

// testFlags are planted in every flow's state word before a schedule
// test runs: the schedule shares the word with the engine's flags and
// must hand them back untouched.
const testFlags = seededBit | strandedBit

// newTestSchedule returns a schedule over n flow state words of its
// own.
func newTestSchedule(n int) *schedule {
	fs := make([]flowState, n)
	for i := range fs {
		fs[i].bits = testFlags
	}
	return &schedule{fs: &fs}
}

// scheduleModel is the referee: the same contents as a slice kept
// sorted under event.before, every operation a linear scan.
type scheduleModel []event

func (m *scheduleModel) find(id int32) int {
	return slices.IndexFunc(*m, func(e event) bool { return e.kind == evkFlow && e.id == id })
}

func (m *scheduleModel) insert(e event) {
	i := slices.IndexFunc(*m, func(o event) bool { return e.before(o) })
	if i < 0 {
		i = len(*m)
	}
	*m = slices.Insert(*m, i, e)
}

func (m *scheduleModel) cancel(id int32) {
	if i := m.find(id); i >= 0 {
		*m = slices.Delete(*m, i, i+1)
	}
}

func (m *scheduleModel) set(id int32, t float64) {
	m.cancel(id)
	m.insert(event{t: t, id: id, kind: evkFlow})
}

func (m *scheduleModel) pop() event {
	e := (*m)[0]
	*m = (*m)[1:]
	return e
}

// checkSchedule fails unless s is a heap under before holding exactly
// m's events, every completion's flow word stores its slot (and only
// flows with an event store one), and no flag bit moved.
func checkSchedule(t testing.TB, s *schedule, m scheduleModel) {
	t.Helper()
	if s.len() != len(m) {
		t.Fatalf("schedule holds %d events, model %d", s.len(), len(m))
	}
	for i, e := range s.ev {
		if i > 0 && e.before(s.ev[(i-1)/2]) {
			t.Fatalf("slot %d %+v sorts before its parent %+v", i, e, s.ev[(i-1)/2])
		}
		if e.kind == evkFlow && s.slot(e.id) != i {
			t.Fatalf("slot %d holds %+v, whose stored slot is %d", i, e, s.slot(e.id))
		}
	}
	for id := int32(0); int(id) < len(*s.fs); id++ {
		if flags := (*s.fs)[id].bits & flagMask; flags != testFlags {
			t.Fatalf("flow %d: flag bits %b, want %b", id, flags, testFlags)
		}
		mi := m.find(id)
		if s.has(id) != (mi >= 0) {
			t.Fatalf("flow %d: has = %v, model index %d", id, s.has(id), mi)
		}
		// The slot check above makes the stored position of a flow with
		// an event point at that event; compare its key.
		if mi >= 0 && s.ev[s.slot(id)] != m[mi] {
			t.Fatalf("flow %d: scheduled %+v, model %+v", id, s.ev[s.slot(id)], m[mi])
		}
	}
	if s.len() > 0 && s.top() != m[0] {
		t.Fatalf("top %+v, model %+v", s.top(), m[0])
	}
}

// drainBoth pops both sides empty and fails on the first difference.
func drainBoth(t testing.TB, s *schedule, m scheduleModel) {
	t.Helper()
	for len(m) > 0 {
		want := m.pop()
		if got := s.pop(); got != want {
			t.Fatalf("popped %+v, model %+v", got, want)
		}
		checkSchedule(t, s, m)
	}
}

// TestScheduleOps walks the schedule's operations one case at a time —
// insert, re-key toward the root and toward the leaves, cancel of the
// root, an interior slot and the last slot, cancel of a flow with no
// event, and the tie order at one instant — each against the model,
// structure checked after every step, then drained.
func TestScheduleOps(t *testing.T) {
	type step struct {
		op   string // set | cancel | fault | pop
		kind uint8  // of a fault
		id   int32
		t    float64
	}
	// fill schedules flows 0..6 at t = 1..7: slot i holds flow i.
	var fill []step
	for id := int32(0); id < 7; id++ {
		fill = append(fill, step{"set", evkFlow, id, float64(id + 1)})
	}
	with := func(more ...step) []step { return append(slices.Clone(fill), more...) }
	for _, c := range []struct {
		name  string
		steps []step
		top   event // expected earliest event after the steps
	}{
		{"insert ascending", fill, event{t: 1, id: 0}},
		{"insert descending", []step{{"set", evkFlow, 0, 3}, {"set", evkFlow, 1, 2}, {"set", evkFlow, 2, 1}}, event{t: 1, id: 2}},
		{"re-key leaf to root", with(step{"set", evkFlow, 6, 0.5}), event{t: 0.5, id: 6}},
		{"re-key root to leaf", with(step{"set", evkFlow, 0, 9}), event{t: 2, id: 1}},
		{"re-key interior up", with(step{"set", evkFlow, 4, 1.5}), event{t: 1, id: 0}},
		{"re-key interior down", with(step{"set", evkFlow, 1, 8}), event{t: 1, id: 0}},
		{"re-key same time", with(step{"set", evkFlow, 3, 4}), event{t: 1, id: 0}},
		{"cancel root", with(step{"cancel", evkFlow, 0, 0}), event{t: 2, id: 1}},
		{"cancel interior", with(step{"cancel", evkFlow, 1, 0}), event{t: 1, id: 0}},
		// Cancelling slot 1 moves the last event (flow 6, t=7) into it;
		// with slot 1's children pushed out to 10 and 11 it stays there.
		{"cancel interior, filler stays", with(step{"set", evkFlow, 3, 10}, step{"set", evkFlow, 4, 11}, step{"cancel", evkFlow, 1, 0}), event{t: 1, id: 0}},
		// The three re-keys leave slot 1's subtree as 20 over 22 and 21;
		// cancelling flow 3 (slot 4) moves the last event (flow 6, t=7)
		// under the t=20 parent, which it must rise past.
		{"cancel interior, filler sifts up", with(step{"set", evkFlow, 1, 20}, step{"set", evkFlow, 3, 21}, step{"set", evkFlow, 4, 22}, step{"cancel", evkFlow, 3, 0}), event{t: 1, id: 0}},
		{"cancel last", with(step{"cancel", evkFlow, 6, 0}), event{t: 1, id: 0}},
		{"cancel only event", []step{{"set", evkFlow, 2, 1}, {"cancel", evkFlow, 2, 0}}, event{}},
		{"cancel without event", with(step{"cancel", evkFlow, 7, 0}), event{t: 1, id: 0}},
		{"pop then re-insert", with(step{"pop", 0, 0, 0}, step{"set", evkFlow, 0, 2.5}), event{t: 2, id: 1}},
		{"ties and duplicate faults", []step{
			{"fault", evkRecover, 0, 1}, {"fault", evkFail, 1, 1}, {"set", evkFlow, 4, 1}, {"fault", evkFail, 0, 1},
			{"set", evkFlow, 3, 1}, {"set", evkFlow, 2, 1}, {"fault", evkFail, 1, 1}, {"set", evkFlow, 1, 1},
		}, event{t: 1, id: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, m := newTestSchedule(8), scheduleModel{}
			for _, st := range c.steps {
				switch st.op {
				case "set":
					s.set(st.id, st.t)
					m.set(st.id, st.t)
				case "cancel":
					s.cancel(st.id)
					m.cancel(st.id)
				case "fault":
					s.pushFault(st.kind, st.id, st.t)
					m.insert(event{t: st.t, id: st.id, kind: st.kind})
				case "pop":
					if got, want := s.pop(), m.pop(); got != want {
						t.Fatalf("popped %+v, model %+v", got, want)
					}
				}
				checkSchedule(t, s, m)
			}
			if s.len() > 0 && s.top() != c.top {
				t.Fatalf("top %+v, want %+v", s.top(), c.top)
			}
			drainBoth(t, s, m)
		})
	}
	// The tie order itself, spelled out: completions by flow id, then
	// failures by link, then recoveries.
	s := newTestSchedule(8)
	s.pushFault(evkRecover, 0, 1)
	s.pushFault(evkFail, 1, 1)
	s.set(4, 1)
	s.pushFault(evkFail, 0, 1)
	s.set(3, 1)
	s.set(2, 1)
	s.set(5, 0.5)
	var got []string
	for s.len() > 0 {
		e := s.pop()
		got = append(got, fmt.Sprintf("%v:%d:%d", e.t, e.kind, e.id))
	}
	want := []string{"0.5:0:5", "1:0:2", "1:0:3", "1:0:4", "1:1:0", "1:1:1", "1:2:0"}
	if !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

// FuzzSchedule replays a byte stream as set/cancel/pop/pushFault
// operations over sixteen flows and eight links at sixteen distinct
// times (so ties and re-keys to the same time are common) against the
// sorted-slice model: equal pops, and after every operation the heap
// order, every flow's stored position and the flag bits all hold.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{0, 1, 9, 0, 2, 3, 0, 1, 2, 2, 1, 1, 3, 4, 3, 2})
	f.Add([]byte{0, 0, 0, 0, 16, 0, 0, 32, 0, 3, 1, 0, 3, 17, 0, 2, 2, 2, 2})
	f.Add([]byte{0, 7, 15, 0, 6, 14, 0, 5, 13, 0, 4, 12, 0, 3, 11, 1, 5, 0, 3, 0, 1, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, m := newTestSchedule(16), scheduleModel{}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for len(data) > 0 {
			op, who := next()%4, next()
			id := int32(who & 15)
			switch op {
			case 0:
				at := float64(next() % 16)
				s.set(id, at)
				m.set(id, at)
			case 1:
				s.cancel(id)
				m.cancel(id)
			case 2:
				if len(m) > 0 {
					if got, want := s.pop(), m.pop(); got != want {
						t.Fatalf("popped %+v, model %+v", got, want)
					}
				}
			case 3:
				at, kind, link := float64(next()%16), evkFail+who>>4&1, int32(who&7)
				s.pushFault(kind, link, at)
				m.insert(event{t: at, id: link, kind: kind})
			}
			checkSchedule(t, s, m)
		}
		drainBoth(t, s, m)
	})
}

// BenchmarkSchedule times the schedule alone on the operation mix the
// engine gives it. Counted once over one poisson-wf play (benchmark/,
// seed 1: 200,000 flows, 400,000 events, 754,203 solved flows): 200,000
// first sets, 172,146 re-keys (85,642 earlier, 83,422 later, 3,082 to
// the same time), 200,000 pops and no cancel — only a link fault
// cancels — at a peak of 44 scheduled events; coflows-wf peaks at 690
// and cli-leapfct at 25. A round here is that ratio, 7 pops each
// followed by the flow's next first set, 6 re-keys of a resident
// flow (alternately earlier and later), plus one cancel-and-reinsert
// so the fault path is timed too: 22 operations.
func BenchmarkSchedule(b *testing.B) {
	for _, n := range []int{44, 690} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			s := newTestSchedule(n)
			rng := uint64(1)
			// draw returns a span in (0, 1]: a completion lands that far
			// past the instant it is set at.
			draw := func() float64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return float64(rng>>40+1) / (1 << 24)
			}
			resident := func() event { return s.ev[int(draw()*float64(n-1))] }
			for id := 0; id < n; id++ {
				s.set(int32(id), draw())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var now float64
				for k := 0; k < 7; k++ {
					e := s.pop()
					now = e.t
					s.set(e.id, now+draw())
				}
				for k := 0; k < 6; k++ {
					e := resident()
					if k%2 == 0 {
						s.set(e.id, now+(e.t-now)*draw())
					} else {
						s.set(e.id, e.t+draw())
					}
				}
				e := resident()
				s.cancel(e.id)
				s.set(e.id, e.t)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/22, "ns/sched-op")
		})
	}
}
