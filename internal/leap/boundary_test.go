package leap

import (
	"math"
	"strings"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
)

// mustPanic runs fn and fails unless it panics with a message that
// names the entry point and the offending argument.
func mustPanic(t *testing.T, fn func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatal("accepted; want a panic")
		}
		msg, _ := r.(string)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", r, w)
			}
		}
	}()
	fn()
}

// assertUntouched fails if a rejected call left anything behind: the
// engine must still be empty and idle.
func assertUntouched(t *testing.T, e *Engine) {
	t.Helper()
	if n := e.Tables().Len(); n != 0 || e.Step() || e.Now() != 0 {
		t.Fatalf("rejected call left state behind: %d flows, now %v", n, e.Now())
	}
}

// TestAddFlowRejectsMalformedArguments: hostile arguments fail at the
// boundary, naming the argument, instead of an index panic deep inside
// Run (an out-of-range link) or a silently poisoned clock (a NaN at).
func TestAddFlowRejectsMalformedArguments(t *testing.T) {
	cases := []struct {
		name  string
		links []int
		size  int64
		at    float64
		want  string
	}{
		{"link past the network", []int{7}, 1 << 20, 0, "link 7"},
		{"negative link", []int{0, -1}, 1 << 20, 0, "link -1"},
		{"empty path", []int{}, 1 << 20, 0, "empty path"},
		{"nil path", nil, 1 << 20, 0, "empty path"},
		{"negative size", []int{0}, -1, 0, "sizeBytes = -1"},
		{"NaN arrival", []int{0}, 1 << 20, math.NaN(), "at = NaN"},
		{"+Inf arrival", []int{0}, 1 << 20, math.Inf(1), "at = +Inf"},
		{"-Inf arrival", []int{0}, 1 << 20, math.Inf(-1), "at = -Inf"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(fluid.NewNetwork([]float64{10e9, 10e9}), Config{})
			mustPanic(t, func() { e.AddFlow(c.links, core.ProportionalFair(), c.size, c.at) }, "AddFlow", c.want)
			assertUntouched(t, e)
		})
	}
	// A nil utility: the allocators that read it would crash with a
	// nil dereference at the first solve.
	for name, alloc := range map[string]fluid.Allocator{"xwi": fluid.NewXWI(), "oracle": fluid.NewOracle()} {
		t.Run("nil utility/"+name, func(t *testing.T) {
			e := NewEngine(fluid.NewNetwork([]float64{10e9, 10e9}), Config{Allocator: alloc})
			mustPanic(t, func() { e.AddFlow([]int{0}, nil, 1<<20, 0) }, "AddFlow", "nil utility")
			assertUntouched(t, e)
		})
	}
	// The boundary cases that stay legal: an arrival in the past, an
	// unbounded flow, the last link.
	e := NewEngine(fluid.NewNetwork([]float64{10e9, 10e9}), Config{})
	e.AddFlow([]int{1}, core.ProportionalFair(), 0, -1)
	f := e.AddFlow([]int{0, 1}, core.ProportionalFair(), 1<<20, 0)
	e.Run(math.Inf(1))
	if !f.Done() {
		t.Fatal("legal flow unfinished")
	}
}

// TestRunRejectsNaN: a NaN horizon panics naming the argument instead
// of returning at once with every flow unfinished (every comparison
// with NaN is false). +Inf and a horizon at or before Now keep their
// meaning: run to completion, and do nothing.
func TestRunRejectsNaN(t *testing.T) {
	e := NewEngine(fluid.NewNetwork([]float64{10e9}), Config{})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 1000, 0)
	mustPanic(t, func() { e.Run(math.NaN()) }, "Run", "until = NaN")
	e.Run(-1)
	e.Run(0)
	if e.Now() != 0 || f.Done() {
		t.Fatalf("a horizon at or before Now moved the run: now %v, flow done %v", e.Now(), f.Done())
	}
	e.Run(math.Inf(1))
	if !f.Done() || !almostEq(f.Finish, 800e-9, 1e-12) {
		t.Fatalf("Run(+Inf): flow done %v at %v, want 800 ns", f.Done(), f.Finish)
	}
}

// TestFaultsRejectMalformedArguments covers FailLink and RecoverLink:
// a link outside the network or a non-finite time panics naming the
// entry point, and schedules nothing.
func TestFaultsRejectMalformedArguments(t *testing.T) {
	entry := map[string]func(*Engine, int, float64){
		"FailLink":    (*Engine).FailLink,
		"RecoverLink": (*Engine).RecoverLink,
	}
	cases := []struct {
		name string
		link int
		at   float64
		want string
	}{
		{"link past the network", 2, 0, "link 2"},
		{"negative link", -1, 0, "link -1"},
		{"NaN time", 0, math.NaN(), "at = NaN"},
		{"+Inf time", 0, math.Inf(1), "at = +Inf"},
		{"-Inf time", 1, math.Inf(-1), "at = -Inf"},
	}
	for fn, call := range entry {
		for _, c := range cases {
			t.Run(fn+"/"+c.name, func(t *testing.T) {
				e := NewEngine(fluid.NewNetwork([]float64{10e9, 10e9}), Config{})
				mustPanic(t, func() { call(e, c.link, c.at) }, fn, c.want)
				assertUntouched(t, e)
				if s := e.Stats(); s.Faults != 0 {
					t.Fatalf("rejected fault was applied: %+v", s)
				}
			})
		}
	}
}

// TestFaultsScheduledInThePast: a fault with at ≤ Now is legal and
// applies on the next Step, at Now — and is billed from Now, not from
// its past timestamp. One 20 s flow on a 10 Gb/s link, the clock run to
// 5 s before the late calls (a long flow on a second link keeps the
// engine from stopping early at the failure): the flow's finish and
// the capacity-lost integral must both reflect the downtime the flow
// actually saw.
func TestFaultsScheduledInThePast(t *testing.T) {
	const rate = 10e9
	cases := []struct {
		name       string
		failEarly  float64 // FailLink scheduled up front (NaN: none)
		failLate   float64 // FailLink called at Now = 5 (NaN: none)
		recover    float64 // RecoverLink called at Now = 5
		wantDown   float64 // seconds the link is really down
		wantFinish float64
	}{
		{"fail in the past", math.NaN(), 1, 6, 1, 21},
		{"recover in the past", 3, math.NaN(), 4, 2, 22},
		{"both in the past", math.NaN(), 1, 2, 0, 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(fluid.NewNetwork([]float64{rate, rate}), Config{})
			f := e.AddFlow([]int{0}, core.ProportionalFair(), 20*rate/8, 0)
			e.AddFlow([]int{1}, core.ProportionalFair(), 100*rate/8, 0)
			if !math.IsNaN(c.failEarly) {
				e.FailLink(0, c.failEarly)
			}
			e.Run(5)
			if e.Now() != 5 {
				t.Fatalf("clock at %v, want 5", e.Now())
			}
			if !math.IsNaN(c.failLate) {
				e.FailLink(0, c.failLate)
			}
			e.RecoverLink(0, c.recover)
			e.Run(math.Inf(1))
			if !almostEq(f.Finish, c.wantFinish, 1e-9) {
				t.Errorf("finish = %v, want %v", f.Finish, c.wantFinish)
			}
			s := e.Stats()
			if !almostEq(s.CapacityLostBitSec, rate*c.wantDown, 1e-9) {
				t.Errorf("CapacityLostBitSec = %v, want %v (%v s down)", s.CapacityLostBitSec, rate*c.wantDown, c.wantDown)
			}
			if !almostEq(s.StrandedSec, c.wantDown, 1e-9) {
				t.Errorf("StrandedSec = %v, want %v", s.StrandedSec, c.wantDown)
			}
			if s.Faults != 2 || s.LinksDown != 0 {
				t.Errorf("faults %d, links down %d, want 2 and 0", s.Faults, s.LinksDown)
			}
		})
	}
}
