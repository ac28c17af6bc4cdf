package harness

import (
	"reflect"
	"strings"
	"testing"

	"numfabric/internal/fluid"
	"numfabric/internal/leap"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

// The fat-tree play fingerprints pin RunDynamicWith on
// DynamicConfig.FatTree — what cmd/numfabric's leapfct, leapfail and
// fattree print — at reduced size: FNV-64a over every finished flow's
// FCT in arrival order, then the unfinished count, then (fault cells)
// the engine's fault accounting. The constants were generated at
// PR 20's parent commit from the CLI's own loops (build an engine,
// pre-schedule the faults, AddFlow every arrival on its precomputed
// path, Run), which goldenFatTree in golden_test.go still has;
// regenerate one only for a change that is *meant* to alter simulated
// results, and say so in CHANGES.md.

type fatTreePlayCase struct {
	name  string
	eng   Engine
	load  float64
	flows int
	seed  uint64
	// faults builds the cell's fault schedule from the tree and the
	// last arrival's instant (nil: a healthy fabric).
	faults func(ft *fluid.FatTree, last sim.Time) []workload.Fault
	want   string
	// unfinished, stranded and linksDown are asserted next to the
	// fingerprint so a failure says which part moved.
	unfinished, stranded, linksDown int
	// short keeps the cell under -short (the race job, ten times
	// slower): one per shape.
	short bool
}

// leapfailFaults is the leapfail sweep's seeded failure process: 60
// link failures per second over the whole fabric, 5 ms mean downtime,
// failures drawn up to the last arrival.
func leapfailFaults(seed uint64) func(*fluid.FatTree, sim.Time) []workload.Fault {
	return func(ft *fluid.FatTree, last sim.Time) []workload.Fault {
		return workload.FaultSchedule(workload.FaultConfig{
			Links:        ft.Net.Links(),
			Rate:         60,
			MeanDowntime: 5 * sim.Millisecond,
			Horizon:      sim.Duration(last),
		}, sim.NewRNG(seed+0x9e3779b9))
	}
}

// scriptedFaults is leapfail's -faults mode.
func scriptedFaults(t *testing.T, spec string) func(*fluid.FatTree, sim.Time) []workload.Fault {
	return func(ft *fluid.FatTree, _ sim.Time) []workload.Fault {
		scripted, err := workload.ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		faults, err := ExpandFaults(ft, scripted)
		if err != nil {
			t.Fatal(err)
		}
		return faults
	}
}

// playFatTree plays one cell the way the CLI does and returns the
// finished flows' FCTs in arrival order, the unfinished count, and the
// leap engine's stats (zero on the epoch engine).
func playFatTree(c fatTreePlayCase) (fcts []float64, unfinished int, stats leap.Stats) {
	ft := fluid.NewFatTree(8, 10e9)
	cfg := DefaultDynamic(NUMFabric, workload.WebSearch(), c.load)
	cfg.FatTree, cfg.Flows, cfg.Seed = ft, c.flows, c.seed
	if c.eng == EngineFluid {
		// fattree: xWI dynamics on a 100 µs epoch, proportional
		// fairness, run to the last arrival + 1 s.
		cfg.FluidEpoch, cfg.Drain = 100*sim.Microsecond, sim.Second
	} else {
		// leapfct / leapfail: xWI to its fixed point per event, the
		// §6.3 FCT-min utility, run to completion.
		cfg.UtilityFor, cfg.Drain = fctMin, sim.Duration(sim.Forever)
	}
	if c.faults != nil {
		cfg.Faults = func(last sim.Time) []workload.Fault { return c.faults(ft, last) }
	}
	res := RunDynamicWith(c.eng, cfg)
	for _, r := range res.Records {
		if r.IdealFCT != float64(r.Size)*8/ft.Rate {
			panic("IdealFCT is not the line-rate transfer time")
		}
		fcts = append(fcts, r.FCT)
	}
	if res.LeapStats != nil {
		stats = *res.LeapStats
	}
	return fcts, res.Unfinished, stats
}

func TestGoldenFatTreePlays(t *testing.T) {
	const script = "agg0.0@10ms+8ms,link3@25ms+5ms"
	cases := []fatTreePlayCase{
		{name: "leapfct/seed1", eng: EngineLeap, load: 0.15, flows: 10000, seed: 1, want: "8d17615227598455", short: true},
		{name: "leapfct/seed2", eng: EngineLeap, load: 0.15, flows: 10000, seed: 2, want: "4f9f29fd9b057504"},
		{name: "leapfail/seed1", eng: EngineLeap, load: 0.3, flows: 1000, seed: 1, faults: leapfailFaults(1),
			want: "f6b8f9f4b8ba6185"},
		{name: "leapfail/seed2", eng: EngineLeap, load: 0.3, flows: 1000, seed: 2, faults: leapfailFaults(2),
			want: "b3326a376e4c51e8", stranded: 13, short: true},
		{name: "leapfail/scripted", eng: EngineLeap, load: 0.3, flows: 1000, seed: 1, faults: scriptedFaults(t, script),
			want: "b30ac33b5d615cbf", stranded: 20},
		// A host that never comes back: its flows stay stranded, so the
		// play ends with flows unfinished and links down.
		{name: "leapfail/permanent", eng: EngineLeap, load: 0.3, flows: 500, seed: 1, faults: scriptedFaults(t, "host5@2ms"),
			want: "cac7475792167982", unfinished: 5, stranded: 5, linksDown: 2, short: true},
		{name: "fattree/seed1", eng: EngineFluid, load: 0.5, flows: 5000, seed: 1, want: "470254fb636bdde7", short: true},
		{name: "fattree/seed2", eng: EngineFluid, load: 0.5, flows: 5000, seed: 2, want: "d6c27834161de757"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("a second seed or script of a shape -short already plays")
			}
			fcts, unfinished, s := playFatTree(c)
			fp := newFingerprint()
			addAll(fp, fcts)
			fp.add(float64(unfinished))
			if c.faults != nil {
				for _, v := range []float64{float64(s.Faults), float64(s.Stranded), float64(s.Resumed),
					float64(s.LinksDown), s.StrandedSec, s.CapacityLostBitSec} {
					fp.add(v)
				}
			}
			if got := fp.String(); got != c.want || unfinished != c.unfinished ||
				s.Stranded != c.stranded || s.LinksDown != c.linksDown {
				t.Errorf("fingerprint %s (%d finished, %d unfinished, %d faults, %d stranded, %d resumed, %d links down), want %s (%d unfinished, %d stranded, %d links down)",
					got, len(fcts), unfinished, s.Faults, s.Stranded, s.Resumed, s.LinksDown,
					c.want, c.unfinished, c.stranded, c.linksDown)
			}
		})
	}
}

// TestFatTreeDynamicRejects: a fat-tree on packets, or faults on an
// engine that cannot retire them, panics naming the config field
// instead of playing something else.
func TestFatTreeDynamicRejects(t *testing.T) {
	cfg := DefaultDynamic(NUMFabric, workload.WebSearch(), 0.1)
	cfg.Flows = 10
	onTree := cfg
	onTree.FatTree = fluid.NewFatTree(4, 10e9)
	faulted := cfg
	faulted.Faults = func(sim.Time) []workload.Fault { return nil }
	for _, c := range []struct {
		eng  Engine
		cfg  DynamicConfig
		want string
	}{
		{EnginePacket, onTree, "DynamicConfig.FatTree"},
		{EngineFluid, faulted, "DynamicConfig.Faults"},
		{EnginePacket, faulted, "DynamicConfig.Faults"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s engine: recovered %q, want a message naming %s", c.eng, msg, c.want)
				}
			}()
			RunDynamicWith(c.eng, c.cfg)
		}()
	}
	// The pairs that do mean something run: the tree on both flow-level
	// engines, faults on leap over either fabric.
	faulted.Faults = func(sim.Time) []workload.Fault { return []workload.Fault{{At: 0, Link: 0, Fail: true}} }
	for _, res := range []DynamicResult{RunDynamicWith(EngineFluid, onTree), RunDynamicWith(EngineLeap, onTree),
		RunDynamicWith(EngineLeap, faulted)} {
		if len(res.Records)+res.Unfinished != 10 || res.RunWall <= 0 {
			t.Errorf("%d records + %d unfinished in %v, want 10 flows and a run time", len(res.Records), res.Unfinished, res.RunWall)
		}
	}
}

// TestFatTreeScheduleIdentity: FatTreeWebSearch and FatTreeCoflows are
// the generator's arrivals followed by one rng.Intn(k²/4) ECMP pick
// per arrival, routed by FatTree.Route — the draw every fat-tree
// fingerprint in this package (and benchmark/'s leapSchedule) assumes —
// and the dynamic family draws and routes the same schedule on
// DynamicConfig.FatTree.
func TestFatTreeScheduleIdentity(t *testing.T) {
	const n = 3000
	for seed := uint64(1); seed <= 3; seed++ {
		ft := fluid.NewFatTree(8, 10e9)
		route := func(arrivals []workload.Arrival, rng *sim.RNG) [][]int {
			paths := make([][]int, len(arrivals))
			for i, a := range arrivals {
				paths[i] = ft.Route(a.Src, a.Dst, rng.Intn(ft.K*ft.K/4))
			}
			return paths
		}

		rng := sim.NewRNG(seed)
		wantA := workload.Poisson(workload.PoissonConfig{
			Hosts: ft.Hosts(), HostLink: sim.BitRate(ft.Rate), Load: 0.1,
			CDF: workload.WebSearch(), Duration: sim.Duration(sim.Forever / 2), MaxFlows: n,
		}, rng)
		wantP := route(wantA, rng)
		gotA, gotP := FatTreeWebSearch(ft, 0.1, n, sim.NewRNG(seed))
		if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotP, wantP) {
			t.Errorf("seed %d: FatTreeWebSearch is not Poisson + one pick per arrival", seed)
		}
		famA, picks := poissonSchedule(fatTree{ft}, workload.WebSearch(), 0.1, n, sim.NewRNG(seed))
		famP := make([][]int, len(famA))
		for i, a := range famA {
			famP[i] = fatTree{ft}.appendRoute(nil, a.Src, a.Dst, picks[i])
		}
		if !reflect.DeepEqual(famA, wantA) || !reflect.DeepEqual(famP, wantP) {
			t.Errorf("seed %d: the dynamic family's draw + routing differs from FatTreeWebSearch", seed)
		}

		rng = sim.NewRNG(seed)
		wantA = workload.Coflows(workload.CoflowConfig{
			Hosts: ft.Hosts(), HostLink: sim.BitRate(ft.Rate), Load: 0.1,
			CDF: workload.WebSearch(), Senders: 15, Bursts: 24, Groups: ft.K, MaxFlows: n,
		}, rng)
		wantP = route(wantA, rng)
		gotA, gotP = FatTreeCoflows(ft, 0.1, n, 15, 24, sim.NewRNG(seed))
		if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotP, wantP) {
			t.Errorf("seed %d: FatTreeCoflows is not Coflows + one pick per arrival", seed)
		}
	}
}
