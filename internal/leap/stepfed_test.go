package leap

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
	"numfabric/internal/sim"
)

// A fed schedule is what a driver that plays arrivals as they happen
// hands the engine: flows in arrival order, and fail/recover pairs
// scheduled up front.
type (
	fedEntry struct {
		at   float64
		path []int
		size int64
	}
	fedFault struct {
		link     int
		at, down float64
	}
	fedSchedule struct {
		entries []fedEntry
		faults  []fedFault
	}
)

// buildFedSchedule draws a seeded schedule on ft: Poisson-ish arrivals
// with same-instant bursts and fail/recover pairs. It opens
// with a flow alone in the network and an arrival on its path at exactly
// its completion instant.
func buildFedSchedule(ft *fluid.FatTree, seed uint64) fedSchedule {
	rng := sim.NewRNG(seed)
	pair := func() (src, dst int) {
		src = rng.Intn(ft.Hosts())
		if dst = rng.Intn(ft.Hosts() - 1); dst >= src {
			dst++
		}
		return src, dst
	}
	entry := func(at float64) fedEntry {
		src, dst := pair()
		size := int64(1+rng.Intn(100)) << 12
		return fedEntry{at: at, path: ft.Route(src, dst, rng.Intn(ft.K*ft.K/4)), size: size}
	}
	var s fedSchedule
	first := fedEntry{path: ft.Route(0, 1, 0), size: 1 << 16}
	at := float64(first.size) * 8 / ft.Rate // the lone flow's finish, as installFlow computes it
	s.entries = append(s.entries, first, fedEntry{at: at, path: first.path, size: 1 << 14})
	for n := 120 + rng.Intn(200); len(s.entries) < n; {
		at += rng.ExpFloat64() * 40e-6
		burst := 1
		if rng.Intn(6) == 0 {
			burst = 2 + rng.Intn(7)
		}
		for ; burst > 0; burst-- {
			s.entries = append(s.entries, entry(at))
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		s.faults = append(s.faults, fedFault{
			link: rng.Intn(ft.Net.Links()),
			at:   rng.Float64() * at,
			down: rng.Float64() * at / 4,
		})
	}
	return s
}

// fedResult is what a play leaves: every entry's finish time (NaN if
// unfinished, then with the payload left at the horizon) and Stats.
type fedResult struct {
	finish, remaining []float64
	stats             Stats
}

// playFed plays s to until on a fresh engine. cadence 0 preloads the
// whole schedule, as every driver did before the harness streamed; any
// other value feeds while stepping — arrivals only until the one fed
// last lies strictly after Now, then a Step — and harvests and releases
// the finished flows whenever cadence of them have piled up.
// checkInvariants runs every few events either way — under WaterFill:
// xWI stops within a tolerance of capacity, not under it.
func playFed(ft *fluid.FatTree, cfg Config, s fedSchedule, until float64, cadence int) fedResult {
	copy(ft.Net.Capacity, fluid.NewFatTree(ft.K, ft.Rate).Net.Capacity) // undo the last play's permanent failures
	e := NewEngine(ft.Net, cfg)
	check, run := e.checkInvariants, runChecked
	if _, exact := e.alloc.(*fluid.WaterFill); !exact {
		check, run = func() {}, (*Engine).Run
	}
	for _, f := range s.faults {
		e.FailLink(f.link, f.at)
		e.RecoverLink(f.link, f.at+f.down)
	}
	n := len(s.entries)
	res := fedResult{finish: make([]float64, n), remaining: make([]float64, n)}
	for i := range res.finish {
		res.finish[i] = math.NaN()
	}
	// flowEntry maps a recycled flow id to its entry; left marks where
	// an unfinished entry's payload is read at the end.
	var flowEntry []int
	left := make([]*float64, n)
	add := func(i int) {
		en := s.entries[i]
		f := e.AddFlow(en.path, core.ProportionalFair(), en.size, en.at)
		for f.ID >= len(flowEntry) {
			flowEntry = append(flowEntry, -1)
		}
		flowEntry[f.ID] = i
		left[i] = &f.Remaining
	}
	harvest := func() {
		for _, f := range e.Finished() {
			res.finish[flowEntry[f.ID]] = f.Finish
		}
		if cadence > 0 {
			e.ReleaseFinished()
		}
	}
	steps := 0
	for i := range s.entries {
		add(i)
		if cadence == 0 || i+1 == n {
			continue
		}
		for s.entries[i].at > e.Now() {
			e.Step()
			if len(e.Finished()) >= cadence {
				harvest()
			}
			if steps++; steps%5 == 0 {
				check()
			}
		}
	}
	run(e, until)
	harvest()
	check()
	for i, f := range res.finish {
		if math.IsNaN(f) {
			res.remaining[i] = *left[i]
		}
	}
	res.stats = e.Stats()
	return res
}

// TestStepFedMatchesPreloaded is the property the harness's streamed
// play rests on: feeding arrivals while stepping, with finished flows
// released on any cadence, is the preloaded run — every finish time and
// every unfinished payload bit for bit, Stats field for field. Sixty
// seeded schedules cover flows, fail/recover pairs
// (some permanent past the horizon), same-instant bursts (the feed
// boundary falls after a burst's first arrival every time, since that
// one lies after Now and its siblings are held back), an arrival at a
// completion instant, and finite horizons that leave flows draining;
// every sixth schedule solves with xWI, whose warm prices would
// remember a reordered solve.
func TestStepFedMatchesPreloaded(t *testing.T) {
	ft := fluid.NewFatTree(4, 10e9)
	bits := math.Float64bits
	seeds, onCompletion := uint64(60), 0
	if testing.Short() {
		seeds = 15 // the race job's share
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		s := buildFedSchedule(ft, seed)
		cfg := func() Config {
			if seed%6 == 0 {
				return Config{Allocator: &fluid.XWI{Eta: 5, Beta: 0.5, IterPerEpoch: 48, Tol: 1e-3}}
			}
			return Config{}
		}
		until := math.Inf(1)
		if seed%3 == 0 {
			until = s.entries[len(s.entries)-1].at + float64(seed)*2e-6
		}
		want := playFed(ft, cfg(), s, until, 0)
		ends := append([]float64(nil), want.finish...)
		sort.Float64s(ends) // NaNs first
		for _, en := range s.entries {
			if i := sort.SearchFloat64s(ends, en.at); i < len(ends) && ends[i] == en.at {
				onCompletion++
			}
		}
		for _, cadence := range []int{1, 64, 4096} {
			got := playFed(ft, cfg(), s, until, cadence)
			for i := range want.finish {
				if bits(got.finish[i]) != bits(want.finish[i]) || bits(got.remaining[i]) != bits(want.remaining[i]) {
					t.Fatalf("seed %d, release every %d: entry %d (at %v) finishes at %v with %v bytes left; preloaded %v with %v",
						seed, cadence, i, s.entries[i].at, got.finish[i], got.remaining[i], want.finish[i], want.remaining[i])
				}
			}
			if got.stats != want.stats {
				t.Fatalf("seed %d, release every %d: Stats\n%+v\npreloaded\n%+v", seed, cadence, got.stats, want.stats)
			}
		}
	}
	if onCompletion < int(seeds) {
		t.Errorf("%d arrivals landed on a completion instant, want at least one per schedule", onCompletion)
	}
}

// TestFlowTraceNamesFlowsBySeq: the flow tracer's sample, its slowest-K
// reservoir and its tail attribution are the same whether the driver
// preloads the schedule or feeds it and releases finished flows every
// 64 completions — they key on the admission ordinal, not on the engine
// id, which under release is a slot a few hundred flows pass through —
// and the exported seq values are unique where the ids are not.
func TestFlowTraceNamesFlowsBySeq(t *testing.T) {
	ft := fluid.NewFatTree(4, 10e9)
	s := buildFedSchedule(ft, 11)
	trace := func(cadence int) *obs.FlowTracer {
		tr := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0.2, SlowestK: 8})
		playFed(ft, Config{Obs: obs.Hooks{FlowTrace: tr}}, s, math.Inf(1), cadence)
		return tr
	}
	type kept struct {
		seq     uint64
		sampled bool
	}
	keptBy := func(tr *obs.FlowTracer) (out []kept) {
		for _, r := range tr.Records() {
			out = append(out, kept{r.Seq, r.Sampled})
		}
		return out
	}
	pre, churn := trace(0), trace(64)
	if a, b := keptBy(pre), keptBy(churn); len(a) < 20 || !reflect.DeepEqual(a, b) {
		t.Errorf("kept records (seq, sampled), slowest first:\npreloaded %v\nreleased  %v", a, b)
	}
	wantAttr, wantN := pre.Trace().TailAttribution(0.25)
	gotAttr, gotN := churn.Trace().TailAttribution(0.25)
	if wantN == 0 || gotN != wantN || !reflect.DeepEqual(gotAttr, wantAttr) {
		t.Errorf("tail attribution over %d flows %+v, preloaded over %d: %+v", gotN, gotAttr, wantN, wantAttr)
	}

	var buf bytes.Buffer
	if err := churn.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	file, err := obs.ReadFlowTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seqs, ids := map[uint64]bool{}, map[int]bool{}
	for _, fl := range file.Flows {
		if seqs[fl.Seq] {
			t.Errorf("seq %d exported twice", fl.Seq)
		}
		seqs[fl.Seq], ids[fl.ID] = true, true
	}
	if len(ids) == len(seqs) {
		t.Errorf("%d flows on %d distinct ids: the released run recycled none, so it shows nothing", len(seqs), len(ids))
	}
}
