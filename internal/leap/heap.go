package leap

// The event kinds. evkFlow is a completion (id is a dense flow table
// id); evkFail and evkRecover are scheduled capacity faults (id is a
// LINK id — never resolved through the flow table, never re-keyed, and
// any number may share a link and an instant).
const (
	evkFlow uint8 = iota
	evkFail
	evkRecover
)

// event is one scheduled occurrence: a finite flow emptying at time t
// under its current rate, or a link failing/recovering at t. Ties break
// deterministically: completions by flow id, and every completion ahead
// of any fault at the same instant (flows retire under the capacities
// they drained under; the fault then mutates capacity for the re-solve
// that follows), with failures ahead of recoveries, then by link id.
//
// Events carry the flow's dense id, not a pointer — 16 bytes instead
// of 40. The engine resolves flows through its table when an event
// surfaces.
type event struct {
	t    float64
	id   int32
	kind uint8 // evkFlow | evkFail | evkRecover
}

func (e event) before(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	if e.kind != o.kind {
		// Faults sort after every completion at their instant, and
		// failures before recoveries.
		return e.kind < o.kind
	}
	return e.id < o.id
}

// schedule is the engine's event queue: a binary min-heap under
// event.before holding AT MOST ONE completion per flow, addressable by
// flow id, plus the fault events. A rate change moves the flow's
// completion in place (set) or removes it (cancel), so every event in
// the heap is live and the heap is exactly the set of draining flows.
//
// Each flow's heap position (index+1; 0 = no event) lives in the top
// bits of its state word, flowState.bits, and is written back on every
// move. The schedule reaches the words through a pointer to the
// engine's state slice, which the engine grows as ids are handed out.
//
// Pop order does not depend on how the heap got here: a flow has at
// most one event and (t, kind, id) is unique per flow, so before is a
// strict total order on the completions (equal fault events are
// interchangeable), and the pop sequence of any correct heap is a
// function of the key set alone. That is what lets set re-key in place
// where an earlier design pushed a second event and skipped the first
// when it surfaced: the live events are the same set at every step.
type schedule struct {
	ev []event
	fs *[]flowState
}

// slot returns the heap index of flow id's completion, -1 while it has
// none.
func (s *schedule) slot(id int32) int { return int((*s.fs)[id].bits>>posShift) - 1 }

// has reports whether flow id has a completion scheduled.
func (s *schedule) has(id int32) bool { return s.slot(id) >= 0 }

// set schedules flow id's completion at t, moving the event the flow
// already has or inserting its first (O(log n) either way).
func (s *schedule) set(id int32, t float64) {
	i := s.slot(id)
	if i < 0 {
		i = len(s.ev)
		s.ev = append(s.ev, event{})
	}
	s.fix(i, event{t: t, id: id, kind: evkFlow})
}

// cancel removes flow id's completion, if it has one.
func (s *schedule) cancel(id int32) {
	if i := s.slot(id); i >= 0 {
		s.remove(i)
	}
}

// pushFault inserts a fault event. Faults have no state word: they are
// never moved by key or cancelled, only popped.
func (s *schedule) pushFault(kind uint8, link int32, t float64) {
	s.ev = append(s.ev, event{})
	s.fix(len(s.ev)-1, event{t: t, id: link, kind: kind})
}

func (s *schedule) len() int { return len(s.ev) }

// top returns the earliest event; valid only when len() > 0.
func (s *schedule) top() event { return s.ev[0] }

// pop removes and returns the earliest event.
func (s *schedule) pop() event {
	e := s.ev[0]
	s.remove(0)
	return e
}

// remove deletes the event in slot i: the last event takes the slot
// and sifts to its place.
func (s *schedule) remove(i int) {
	if e := s.ev[i]; e.kind == evkFlow {
		(*s.fs)[e.id].bits &= flagMask
	}
	last := len(s.ev) - 1
	e := s.ev[last]
	s.ev = s.ev[:last]
	if i < last {
		s.fix(i, e)
	}
}

// fix puts e where heap order wants it, starting from the vacant slot
// i: toward the root while e sorts before its parent, else toward the
// leaves while a child sorts before e. Displaced events shift through
// the vacancy, each recording its new position.
func (s *schedule) fix(i int, e event) {
	ev := s.ev
	j := i
	for j > 0 {
		p := (j - 1) / 2
		if !e.before(ev[p]) {
			break
		}
		s.place(j, ev[p])
		j = p
	}
	if j == i {
		for {
			m := 2*j + 1
			if m >= len(ev) {
				break
			}
			if r := m + 1; r < len(ev) && ev[r].before(ev[m]) {
				m = r
			}
			if !ev[m].before(e) {
				break
			}
			s.place(j, ev[m])
			j = m
		}
	}
	s.place(j, e)
}

// place stores e in slot i and records the position in its flow's
// state word.
func (s *schedule) place(i int, e event) {
	s.ev[i] = e
	if e.kind == evkFlow {
		b := &(*s.fs)[e.id].bits
		*b = *b&flagMask | uint32(i+1)<<posShift
	}
}
