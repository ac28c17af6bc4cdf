package sim

// Engine is a single-threaded discrete-event simulation loop.
//
// Events are closures scheduled for a point in simulated time. They run
// in (at, seq) order: by time, and at equal times in the order they were
// scheduled (seq counts Schedule calls), so a given seed always produces
// an identical execution. The clock never moves backwards: Run(until)
// runs no event later than until, stops the clock on until when it
// returns with later events pending, and does nothing when until is
// already behind the clock. The event set is an eventQueue.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	stopped bool

	// Executed counts events executed since creation (useful for
	// progress reporting and performance benchmarks).
	Executed uint64
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	runs := make([]event, ringSize*bucketCap)
	for i := range e.queue.ring {
		e.queue.ring[i].ev = runs[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at the given absolute time. Scheduling in the past
// panics: it always indicates a logic error in a control law.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, fn: fn})
}

// After runs fn d after the current time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now.Add(d), fn)
}

// Every runs fn every period, starting at start, for as long as the
// engine runs.
func (e *Engine) Every(start Time, period Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		e.After(period, tick)
	}
	e.Schedule(start, tick)
}

// Run executes events until the queue is empty, the until time is
// passed, or Stop is called, and returns the clock: until if it ended at
// an event later than until, else the time of the last executed event.
// An until behind the clock runs nothing and leaves it there.
func (e *Engine) Run(until Time) Time {
	if until < e.now {
		return e.now
	}
	e.stopped = false
	for e.queue.len() > 0 && !e.stopped {
		ev, ok := e.queue.pop(until)
		if !ok {
			// Leave the events for a later Run call.
			e.now = until
			return e.now
		}
		e.now = ev.at
		e.Executed++
		ev.fn()
	}
	return e.now
}

// Stop halts Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// The calendar's geometry, fitted to the packet engine's scheduling gaps
// (at − now) as counted over a 1,000-flow fig7 play (13.9 M events, 674
// pending on average, 1,221 at most): 61 % land 1.05–2.1 µs ahead (a
// 1,500 B serialisation at 10 Gb/s is 1.2 µs), 10 % 0.26–0.52 µs, 24 %
// within 65 ns, 5 % 17–34 µs, under 0.1 % further. Buckets of 2^16 ps
// (65.5 ns) keep a sorted insert's walk at 1.7 entries on average (an
// instant already present appends); 2^7 of them reach 8.4 µs ahead,
// which takes ≈ 95 % of pushes and leaves the timer-scale rest to the
// overflow. The worst case is many distinct instants pushed out of order
// into one bucket: each insert walks half of it. Buckets start with room
// for bucketCap events, carved from one array, so the cursor's first laps
// do not grow them one by one; one filled past that grows and keeps its
// array.
const (
	bucketBits = 16
	ringSize   = 1 << 7
	bucketCap  = 16
)

// eventQueue is Engine's event set: a calendar queue (Brown, CACM 1988)
// over the (at, seq) order. Bucket b holds the events with
// at>>bucketBits == b. The ring holds buckets cur to cur+ringSize−1 (the
// horizon), bucket b in slot b mod ringSize, each a run sorted by
// (at, seq) with a head index: a push walks back from the tail past the
// entries with a larger at, so equal times stay in seq order (a push
// carries the largest seq so far). Events past the horizon wait in the
// overflow heap and move into their bucket as the cursor brings it
// inside; with the ring empty the cursor jumps to the overflow's minimum.
//
// The cursor moves only in pop, off an empty bucket, and never past
// until's bucket. As Run never lets until fall behind the clock,
// cur ≤ now>>bucketBits holds between calls, so an event scheduled after
// an early return, anywhere in [until, next event), lands at or ahead of
// the cursor.
type eventQueue struct {
	ring     [ringSize]bucket
	cur      int64 // the cursor: the absolute number of the ring's earliest bucket
	inRing   int
	overflow eventHeap
}

// bucket is one sorted run; ev[head:] are its pending events.
type bucket struct {
	ev   []event
	head int
}

func (q *eventQueue) len() int { return q.inRing + len(q.overflow) }

func (q *eventQueue) push(ev event) {
	b := int64(ev.at >> bucketBits)
	if b-q.cur >= ringSize {
		q.overflow.push(ev)
		return
	}
	q.ring[b&(ringSize-1)].insert(ev)
	q.inRing++
}

func (bk *bucket) insert(ev event) {
	bk.ev = append(bk.ev, ev)
	i := len(bk.ev) - 1
	for i > bk.head && bk.ev[i-1].at > ev.at {
		bk.ev[i] = bk.ev[i-1]
		i--
	}
	bk.ev[i] = ev
}

// pop removes and returns the earliest event if it is due by until. The
// queue must not be empty.
func (q *eventQueue) pop(until Time) (event, bool) {
	last := int64(until >> bucketBits)
	for {
		bk := &q.ring[q.cur&(ringSize-1)]
		if bk.head < len(bk.ev) {
			ev := bk.ev[bk.head]
			if ev.at > until {
				return event{}, false
			}
			bk.ev[bk.head].fn = nil // release the closure
			if bk.head++; bk.head == len(bk.ev) {
				bk.ev, bk.head = bk.ev[:0], 0
			}
			q.inRing--
			return ev, true
		}
		// The cursor's bucket is empty: every event is in a later one.
		if q.cur >= last {
			return event{}, false
		}
		if q.inRing > 0 {
			q.cur++
		} else {
			q.cur = min(int64(q.overflow[0].at>>bucketBits), last)
		}
		for len(q.overflow) > 0 && int64(q.overflow[0].at>>bucketBits)-q.cur < ringSize {
			q.push(q.overflow.pop())
		}
	}
}

// eventHeap is the calendar's overflow: a binary min-heap ordered by
// (time, sequence). It is hand-rolled rather than using container/heap
// to avoid interface boxing on the hot path. queue.STFQ's packet heap
// follows the same rule.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // release the closure
	*h = old[:n]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && (*h).less(left, smallest) {
			smallest = left
		}
		if right < n && (*h).less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}
