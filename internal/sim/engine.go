package sim

// Engine is a single-threaded discrete-event simulation loop.
//
// Events are closures scheduled for a point in simulated time. Events
// with equal timestamps execute in scheduling order (a monotonically
// increasing sequence number breaks heap ties), so a given seed always
// produces an identical execution.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	heap    eventHeap
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
	return &Engine{heap: make(eventHeap, 0, 1024)}
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
	e.heap.push(event{at: at, seq: e.seq, fn: fn})
}

// After runs fn d after the current time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now.Add(d), fn)
}

// Every runs fn every period, starting at start. The returned cancel
// function stops future firings.
func (e *Engine) Every(start Time, period Duration, fn func()) (cancel func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.After(period, tick)
		}
	}
	e.Schedule(start, tick)
	return func() { stopped = true }
}

// Run executes events until the queue is empty, the until time is
// passed, or Stop is called. It returns the time of the last executed
// event (or the current time if none ran).
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if e.heap[0].at > until {
			// Leave the event for a later Run call.
			e.now = until
			return e.now
		}
		ev := e.heap.pop()
		e.now = ev.at
		e.Executed++
		ev.fn()
	}
	return e.now
}

// Stop halts Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) }

// eventHeap is a binary min-heap ordered by (time, sequence). It is
// hand-rolled rather than using container/heap to avoid interface
// boxing on the hot path: the simulator executes tens of millions of
// events per experiment. queue.STFQ's packet heap follows the same
// rule.
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
