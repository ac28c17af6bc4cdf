package leap

import (
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/refsim"
)

// scheduler is what a schedule builder drives: the leap engine under
// test and the internal/refsim referee take the identical calls.
type scheduler interface {
	AddFlow(links []int, u core.Utility, sizeBytes int64, at float64) *fluid.Flow
	FailLink(link int, at float64)
	RecoverLink(link int, at float64)
}

var (
	_ scheduler = (*Engine)(nil)
	_ scheduler = (*refsim.Sim)(nil)
)

// fuzzCaps is the fuzz schedule's heterogeneous six-link network.
func fuzzCaps() []float64 {
	return []float64{10e9, 10e9, 25e9, 40e9, 10e9, 25e9}
}

// buildFuzzSchedule decodes a byte stream into a random schedule
// starting at time base: four bytes per entry select the arrival-grid
// delta (zero deltas build colliding instants), a one- or two-link
// path, the size (255 encodes an unbounded flow) and out-of-order
// scheduling (exercising the unsorted-pending sort). Every byte stream
// is a valid schedule, so the fuzzer explores the engine, not the
// decoder.
func buildFuzzSchedule(e scheduler, data []byte, base float64) []*fluid.Flow {
	const links = 6
	var fs []*fluid.Flow
	at := base
	for i := 0; i+3 < len(data); i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		at += float64(b0%4) * 50e-6
		path := []int{int(b1) % links}
		if b1&0x40 != 0 {
			if l2 := int(b1>>3) % links; l2 != path[0] {
				path = append(path, l2)
			}
		}
		size := int64(0) // unbounded: holds its rate forever
		if b2 != 255 {
			size = int64(1+int(b2)) << 12
		}
		t := at
		if b3&0x20 != 0 && t >= 100e-6 {
			t -= 100e-6 // schedule behind the tail: unsorted pending
		}
		fs = append(fs, e.AddFlow(path, core.ProportionalFair(), size, t))
	}
	return fs
}

// fuzzCut derives an optional mid-run deadline from the input, so the
// fuzzer also crosses the horizon branch of Run and resumes from it.
func fuzzCut(data []byte) float64 {
	if len(data) > 0 && data[0]&1 == 0 {
		return float64(data[0]) * 25e-6
	}
	return math.Inf(1)
}

// finishTimes snapshots every flow's finish time (NaN while
// unfinished).
func finishTimes(fs []*fluid.Flow) []float64 {
	out := make([]float64, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.Finish)
	}
	return out
}

// assertMatchesReference fails unless the engine and the referee left
// the same flows unfinished and finished every other one
// at the same time to 1e-9 relative — float noise between an
// incremental and a whole-set solve is orders of magnitude below
// that, a scheduling bug orders of magnitude above.
func assertMatchesReference(t *testing.T, label string, seed uint64, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s seed %d: %d finish times vs the reference's %d", label, seed, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) != math.IsNaN(want[i]) || (!math.IsNaN(got[i]) && !almostEq(got[i], want[i], 1e-9)) {
			t.Fatalf("%s seed %d: entry %d finishes at %v, reference %v", label, seed, i, got[i], want[i])
		}
	}
}

// FuzzLeapMatchesReference is the engine's one correctness fuzzer: a
// byte stream decodes into arrivals, unbounded flows and
// an interleaved fault schedule (nested failures, same-instant
// fail+recover pairs, recoveries past the cut), an optional mid-run
// deadline, an optional ReleaseFinished there, and — after a cut — a
// second wave of the same arrivals, which draws the recycled slots.
// The leap engine, with its invariants checked every few events, and
// internal/refsim — whole-set re-solve at every event, no heap, no
// index, no code shared with the engine — must finish everything at
// the same times and agree on the degradation accounting.
func FuzzLeapMatchesReference(f *testing.F) {
	// Structured seeds: colliding instants on shared links, two-link
	// paths, unbounded flows, out-of-order arrivals; then
	// the same with permanent failures, fail+recover pairs over shared
	// links, same-instant pairs and nested failures.
	f.Add([]byte{0, 1, 8, 0, 0, 1, 8, 0, 2, 0x41, 16, 0xc1, 1, 2, 255, 0x20})
	f.Add([]byte{1, 0x49, 32, 0, 1, 0x52, 64, 0xc3, 0, 3, 9, 0, 3, 4, 12, 0x20})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0})
	f.Add([]byte{3, 0x7f, 200, 0xff, 2, 5, 100, 0x60, 1, 0x48, 50, 0xc5})
	f.Add([]byte{0, 1, 8, 0x85, 0, 1, 8, 0x88, 2, 0x41, 16, 0xc1, 1, 2, 255, 0x20})
	f.Add([]byte{0, 0, 0xc0, 0, 1, 0xc5, 0, 2, 0xff, 1, 3, 0x81, 2, 4, 100, 0x60})
	f.Add([]byte{0, 0, 1, 0x80, 0, 0, 1, 0x80, 0, 0, 1, 0x42, 0, 0, 1, 0})
	f.Add([]byte{3, 0x7f, 200, 0xff, 2, 5, 100, 0x83, 1, 0x48, 50, 0xc5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		cut := fuzzCut(data)
		release := len(data) > 1 && data[1]&1 == 0
		// play runs the two-wave schedule on s and returns every finish
		// time: the first wave's — harvested at the cut, because a
		// release there invalidates the finished flows' pointers — then
		// the second wave's.
		play := func(s scheduler, run func(until float64), atCut func()) []float64 {
			buildFuzzFaults(s, data)
			fs := buildFuzzSchedule(s, data, 0)
			run(cut)
			first := finishTimes(fs)
			if math.IsInf(cut, 1) {
				return first
			}
			atCut()
			fs2 := buildFuzzSchedule(s, data, cut)
			run(math.Inf(1))
			// What was still running at the cut was not released: its
			// pointers are good.
			for i, v := range finishTimes(fs) {
				if math.IsNaN(first[i]) {
					first[i] = v
				}
			}
			return append(first, finishTimes(fs2)...)
		}
		e := NewEngine(fluid.NewNetwork(fuzzCaps()), Config{})
		got := play(e, func(until float64) { runChecked(e, until) }, func() {
			if release {
				e.ReleaseFinished()
				e.checkInvariants()
			}
		})
		ref := refsim.New(fluid.NewNetwork(fuzzCaps()), fluid.NewWaterFill())
		want := play(ref, ref.Run, func() {})
		assertMatchesReference(t, "fuzz", 0, got, want)
		if s := e.Stats(); s.LinksDown != ref.LinksDown || !almostEq(s.CapacityLostBitSec, ref.CapacityLostBitSec, 1e-9) {
			t.Fatalf("degradation accounting diverges: engine %d down, %v bit·s lost; reference %d, %v",
				s.LinksDown, s.CapacityLostBitSec, ref.LinksDown, ref.CapacityLostBitSec)
		}
	})
}
