package fluid

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"numfabric/internal/core"
)

// assertRejected runs call on a fresh two-link engine under alloc and
// fails unless it panics with a message naming the entry point and the
// offending argument and leaves the engine untouched (Step reports no
// work). The panic is checked first and the engine is never stepped
// after an accepted call: an engine that took a NaN arrival steps
// forever, and one that took a bad path or a nil utility panics inside
// the allocator.
func assertRejected(t *testing.T, alloc Allocator, call func(e *Engine), want ...string) {
	t.Helper()
	e := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Allocator: alloc})
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		call(e)
		t.Fatal("accepted; want a panic")
	}()
	for _, w := range want {
		if !strings.Contains(msg, w) {
			t.Fatalf("panic %q does not mention %q", msg, w)
		}
	}
	if e.Step() || e.Now() != 0 {
		t.Fatalf("rejected call left work behind: Step reports work or moved the clock (now %v)", e.Now())
	}
}

// TestEngineRejectsMalformedArguments: hostile AddFlow/AddGroup
// arguments fail at the boundary, naming the argument, instead of
// hanging Run (a NaN arrival is never due) or panicking with a bare
// runtime error inside the allocator on the first Step (an empty path,
// an out-of-range link, a nil utility). AddGroup validates every path
// before creating anything, and names the allocator unless it is XWI,
// the one that plays groups.
func TestEngineRejectsMalformedArguments(t *testing.T) {
	pf := core.ProportionalFair()
	flows := []struct {
		name  string
		links []int
		u     core.Utility
		size  int64
		at    float64
		want  string
	}{
		{"link past the network", []int{7}, pf, 1 << 20, 0, "link 7"},
		{"negative link", []int{0, -1}, pf, 1 << 20, 0, "link -1"},
		{"empty path", []int{}, pf, 1 << 20, 0, "empty path"},
		{"nil path", nil, pf, 1 << 20, 0, "empty path"},
		{"nil utility", []int{0}, nil, 1 << 20, 0, "nil utility"},
		{"negative size", []int{0}, pf, -1, 0, "sizeBytes = -1"},
		{"NaN arrival", []int{0}, pf, 1 << 20, math.NaN(), "at = NaN"},
		{"+Inf arrival", []int{0}, pf, 1 << 20, math.Inf(1), "at = +Inf"},
		{"-Inf arrival", []int{0}, pf, 1 << 20, math.Inf(-1), "at = -Inf"},
	}
	for _, c := range flows {
		t.Run("AddFlow/"+c.name, func(t *testing.T) {
			assertRejected(t, NewXWI(), func(e *Engine) { e.AddFlow(c.links, c.u, c.size, c.at) }, "AddFlow", c.want)
		})
	}
	groups := []struct {
		name  string
		paths [][]int
		u     core.Utility
		at    float64
		want  string
	}{
		{"no paths", nil, pf, 0, "no paths"},
		{"second path out of range", [][]int{{0}, {2}}, pf, 0, "link 2"},
		{"empty member path", [][]int{{0}, {}}, pf, 0, "empty path"},
		{"nil utility", [][]int{{0}, {1}}, nil, 0, "nil utility"},
		{"NaN arrival", [][]int{{0}, {1}}, pf, math.NaN(), "at = NaN"},
		{"+Inf arrival", [][]int{{0}, {1}}, pf, math.Inf(1), "at = +Inf"},
	}
	for _, c := range groups {
		t.Run("AddGroup/"+c.name, func(t *testing.T) {
			assertRejected(t, NewXWI(), func(e *Engine) { e.AddGroup(c.paths, c.u, c.at) }, "AddGroup", c.want)
		})
	}
	for _, alloc := range []Allocator{NewWaterFill(), NewDGD(), NewOracle()} {
		name := fmt.Sprintf("%T", alloc)
		t.Run("AddGroup/"+name, func(t *testing.T) {
			assertRejected(t, alloc, func(e *Engine) { e.AddGroup([][]int{{0}, {1}}, pf, 0) }, "AddGroup", name)
		})
	}
	// What stays legal: an arrival in the past, an unbounded flow, a
	// group, the last link.
	e := NewEngine(NewNetwork([]float64{10e9, 10e9}), Config{Allocator: NewXWI()})
	unbounded := e.AddFlow([]int{1}, pf, 0, -1)
	f := e.AddFlow([]int{0, 1}, pf, 1<<20, -1e-3)
	g := e.AddGroup([][]int{{0}, {1}}, pf, -1e-3)
	e.Run(1)
	if !f.Done() || g.Rate() <= 0 || unbounded.Rate <= 0 {
		t.Fatalf("legal arrivals: flow done %v, group rate %v, unbounded rate %v", f.Done(), g.Rate(), unbounded.Rate)
	}
}

// TestRunRejectsNaN: a NaN horizon panics naming the argument instead
// of returning at once with every flow unfinished (every comparison
// with NaN is false). +Inf and a horizon at or before Now keep their
// meaning: run to completion, and do nothing.
func TestRunRejectsNaN(t *testing.T) {
	e := NewEngine(NewNetwork([]float64{10e9}), Config{Allocator: NewWaterFill()})
	f := e.AddFlow([]int{0}, core.ProportionalFair(), 1000, 0)
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.Run(math.NaN())
	}()
	if !strings.Contains(msg, "Run") || !strings.Contains(msg, "until = NaN") {
		t.Fatalf("Run(NaN): panic %q, want one naming Run and until = NaN", msg)
	}
	e.Run(-1)
	e.Run(0)
	if e.Now() != 0 || f.Done() {
		t.Fatalf("a horizon at or before Now moved the run: now %v, flow done %v", e.Now(), f.Done())
	}
	e.Run(math.Inf(1))
	if !f.Done() {
		t.Fatal("Run(+Inf) left the flow unfinished")
	}
}

// TestNewEngineRejectsNonFiniteEpoch: a NaN or +Inf Config.Epoch panics
// naming the field instead of running with a clock that jumps to NaN or
// +Inf — finishing a flow at a bogus sub-epoch time and never admitting
// the next arrival. A value ≤ 0 (-Inf included) keeps meaning the
// default epoch.
func TestNewEngineRejectsNonFiniteEpoch(t *testing.T) {
	net := NewNetwork([]float64{10e9})
	for _, epoch := range []float64{math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(epoch), func(t *testing.T) {
			var msg string
			func() {
				defer func() { msg = fmt.Sprint(recover()) }()
				NewEngine(net, Config{Epoch: epoch, Allocator: NewWaterFill()})
			}()
			if !strings.Contains(msg, "NewEngine") || !strings.Contains(msg, fmt.Sprintf("Epoch = %v", epoch)) {
				t.Fatalf("Epoch %v: panic %q, want one naming NewEngine and the Epoch", epoch, msg)
			}
		})
	}
	for _, epoch := range []float64{0, -1, math.Inf(-1)} {
		e := NewEngine(net, Config{Epoch: epoch, Allocator: NewWaterFill()})
		f := e.AddFlow([]int{0}, core.ProportionalFair(), 1000, 1e-3)
		e.Run(math.Inf(1))
		if want := 1e-3 + 1000*8/10e9; !f.Done() || math.Abs(f.Finish-want) > 1e-12 {
			t.Fatalf("Epoch %v: flow done %v at %v, want the default epoch's finish at %v", epoch, f.Done(), f.Finish, want)
		}
	}
}

// TestStopBeforeAdmission: a flow stopped before any Step admitted it
// is never admitted — rate 0, Finish NaN, absent from Finished — whether
// it was due at once or later.
func TestStopBeforeAdmission(t *testing.T) {
	e := NewEngine(NewNetwork([]float64{10e9}), Config{Allocator: NewWaterFill()})
	u := core.ProportionalFair()
	unbounded := e.AddFlow([]int{0}, u, 0, 0)
	later := e.AddFlow([]int{0}, u, 1000, 1e-3)
	e.Stop(unbounded)
	e.Stop(later)
	e.Run(5e-3)
	for _, f := range []*Flow{unbounded, later} {
		if f.Rate != 0 || f.Done() {
			t.Errorf("stopped flow %d ran: rate %v, finish %v", f.ID, f.Rate, f.Finish)
		}
	}
	if n := len(e.Finished()); n != 0 {
		t.Errorf("%d finished flows, want 0", n)
	}
}
