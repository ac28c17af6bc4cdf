package sim

import (
	"sort"
	"testing"
)

// FuzzEventQueue holds Engine to a model of its event set — a slice of
// pending (at, seq) pairs kept sorted — under a byte-driven interleaving
// of Schedule and After (gaps from zero to past any bucket horizon, the
// saturating Forever, ties with a pending instant), Run with its limit
// before, at and after the next event, Stop inside and outside Run, and
// a Schedule into [until, next event) after Run returned early. Every
// event checks, as it fires, that it is the model's next and that the
// clock reads its instant; after every step the queue's length, Now and
// Executed must match the model.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 1, 2, 1, 0, 0, 0, 2, 1, 2, 3})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 5, 7, 2, 1, 4, 9, 9, 2, 2, 0, 4, 0, 3, 0})
	f.Add([]byte{1, 4, 8, 4, 1, 5, 1, 5, 2, 0, 0, 9, 4, 200, 7, 2, 3})
	rng := NewRNG(1)
	for i := 0; i < 48; i++ {
		data := make([]byte, 64+rng.Intn(512))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &queueCheck{t: t, e: NewEngine(), data: data}
		for len(c.data) > 0 {
			c.step()
			c.check()
		}
		c.run(Forever)
		c.check()
		if len(c.model) != 0 {
			t.Fatalf("%d events left after Run(Forever)", len(c.model))
		}
	})
}

type modelEvent struct {
	at  Time
	seq uint64
}

// queueCheck plays one fuzz input against an Engine and the model.
type queueCheck struct {
	t       *testing.T
	e       *Engine
	data    []byte
	model   []modelEvent // pending, sorted by (at, seq)
	seq     uint64       // Schedule calls so far
	now     Time
	until   Time // the limit of the Run in progress
	stopped bool // an event called Stop during this Run
	fired   uint64
}

// next consumes one byte of input; an exhausted input reads as zeros,
// which schedule nothing and end no Run.
func (c *queueCheck) next() byte {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return b
}

// gap draws a non-negative span: zero, a few picoseconds, and each
// power-of-16 range up to far past any horizon, or Forever (the clock
// saturates).
func (c *queueCheck) gap() Duration {
	v := Duration(c.next())<<8 | Duration(c.next())
	switch c.next() % 8 {
	case 0:
		return 0
	case 1:
		return v & 0xff
	case 2:
		return v << 2 // up to 2^18 ps
	case 3:
		return v << 6 // up to 2^22 ps
	case 4:
		return v << 10 // up to 2^26 ps
	case 5:
		return v << 18 // up to 2^34 ps
	case 6:
		return v << 30 // up to 2^46 ps
	}
	return Duration(Forever)
}

// schedule registers one event at at, through After(d) when viaAfter
// (at is then Now().Add(max(d, 0))).
func (c *queueCheck) schedule(at Time, d Duration, viaAfter bool) {
	c.seq++
	me := modelEvent{at: at, seq: c.seq}
	fn := func() { c.fire(me) }
	if viaAfter {
		c.e.After(d, fn)
	} else {
		c.e.Schedule(at, fn)
	}
	i := sort.Search(len(c.model), func(i int) bool { return c.model[i].at > at })
	c.model = append(c.model, modelEvent{})
	copy(c.model[i+1:], c.model[i:])
	c.model[i] = me
}

// fire runs inside the engine: the event must be the model's next, due
// by the running Run's limit, with the clock on its instant. Then it
// may schedule a child (any gap, or a tie at this instant) or Stop.
func (c *queueCheck) fire(me modelEvent) {
	if len(c.model) == 0 || c.model[0] != me {
		c.t.Fatalf("fired (at %d, seq %d); the model's next is %v", me.at, me.seq, c.model[:min(1, len(c.model))])
	}
	if me.at > c.until {
		c.t.Fatalf("fired (at %d, seq %d) inside Run(%d)", me.at, me.seq, c.until)
	}
	if c.e.Now() != me.at {
		c.t.Fatalf("Now() = %d inside the event at %d", c.e.Now(), me.at)
	}
	c.model = c.model[1:]
	c.now = me.at
	c.fired++
	switch c.next() % 8 {
	case 1, 2, 3:
		d := c.gap()
		c.schedule(c.now.Add(d), d, true)
	case 4:
		c.schedule(c.now, 0, false)
	case 5:
		c.e.Stop()
		c.stopped = true
	}
}

// step plays one top-level operation.
func (c *queueCheck) step() {
	switch c.next() % 6 {
	case 0:
		c.schedule(c.now.Add(c.gap()), 0, false)
	case 1:
		d := c.gap()
		if c.next()%4 == 0 {
			d = -d // After clamps a negative span to zero
		}
		c.schedule(c.now.Add(max(d, 0)), d, true)
	case 2:
		ref := c.now
		if len(c.model) > 0 {
			ref = c.model[0].at
		}
		var until Time
		switch c.next() % 5 {
		case 0:
			until = ref.Add(-c.gap()) // before the next event
		case 1:
			until = ref
		case 2:
			until = ref.Add(c.gap())
		case 3:
			until = Forever
		case 4:
			until = c.now.Add(-c.gap()) // behind the clock: runs nothing
		}
		c.run(until)
	case 3:
		c.e.Stop() // outside Run: the next Run starts afresh
	case 4:
		// Into [Now, next event): after an early return, [until, next).
		if len(c.model) > 0 && c.model[0].at > c.now {
			span := uint64(c.model[0].at - c.now)
			off := uint64(c.next())<<16 | uint64(c.next())<<8 | uint64(c.next())
			c.schedule(c.now+Time(off%span), 0, false)
		}
	case 5:
		// A tie with an instant already pending.
		if len(c.model) > 0 {
			c.schedule(c.model[int(c.next())%len(c.model)].at, 0, false)
		}
	}
}

// run calls Run(until) and checks where it left the clock: on until if
// an event beyond it is still pending and nothing stopped the run, on
// the last event executed otherwise, and where it was if until is
// behind it.
func (c *queueCheck) run(until Time) {
	c.until, c.stopped = until, false
	got := c.e.Run(until)
	if !c.stopped && len(c.model) > 0 {
		if c.model[0].at <= until {
			c.t.Fatalf("Run(%d) returned with (at %d, seq %d) pending", until, c.model[0].at, c.model[0].seq)
		}
		c.now = max(c.now, until)
	}
	if got != c.now {
		c.t.Fatalf("Run(%d) returned %d, want %d", until, got, c.now)
	}
}

func (c *queueCheck) check() {
	if c.e.queue.len() != len(c.model) {
		c.t.Fatalf("Pending() = %d, model %d", c.e.queue.len(), len(c.model))
	}
	if c.e.Now() != c.now {
		c.t.Fatalf("Now() = %d, model %d", c.e.Now(), c.now)
	}
	if c.e.Executed != c.fired {
		c.t.Fatalf("Executed = %d, model %d", c.e.Executed, c.fired)
	}
}
