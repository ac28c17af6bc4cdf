package leap

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/fluid"
	"numfabric/internal/obs"
	"numfabric/internal/sim"
	"numfabric/internal/workload"
)

// linkStatsGoldenPlay plays 20,000 web-search flows at load 0.07 on a
// k=8 fat-tree under xWI with the §6.3 FCT-min utility — leapfct's
// scenario at a fiftieth of its size — with a FlowTracer keeping a 10 %
// hash sample beside its default slowest-64 reservoir (the CLI's private
// tracer keeps 1 %; ten times that puts 21 flows in the 1 % tail).
func linkStatsGoldenPlay() *obs.FlowTracer {
	ft := fluid.NewFatTree(8, 10e9)
	tracer := obs.NewFlowTracer(obs.FlowTraceConfig{SampleRate: 0.1})
	tracer.SetLinkName(ft.LinkName)
	e := NewEngine(ft.Net, Config{
		Allocator: &fluid.XWI{IterPerEpoch: 48, Tol: 1e-3},
		Obs:       obs.Hooks{FlowTrace: tracer},
	})
	rng := sim.NewRNG(29)
	gen := workload.NewPoisson(workload.PoissonConfig{
		Hosts: ft.Hosts(), HostLink: sim.BitRate(ft.Rate), Load: 0.07,
		CDF: workload.WebSearch(), Duration: sim.Duration(sim.Forever / 2), MaxFlows: 20000,
	}, rng)
	for a, ok := gen.Next(); ok; a, ok = gen.Next() {
		path := ft.Route(a.Src, a.Dst, rng.Intn(ft.K*ft.K/4))
		e.AddFlow(path, core.FCTMin(a.Size, core.FCTEpsilon), a.Size, a.At.Seconds())
	}
	e.Run(math.Inf(1))
	return tracer
}

// TestLinkStatsGolden pins the per-link statistics the flow tracer
// accumulates from the rate-change stream — every link's load, flow
// count, average and peak utilization, flow-seconds and capped time
// series — and the tail attribution of the slowest 1 % of traced flows,
// as hashes of their JSON with constants generated before the per-link
// state was regrouped. The play drives enough rate changes for 142 of
// the 768 series to reach their 512-point cap and for same-instant
// changes on one link to settle into one point.
func TestLinkStatsGolden(t *testing.T) {
	tracer := linkStatsGoldenPlay()
	links := tracer.LinksSnapshot()
	attr, n := tracer.Trace().TailAttribution(0.01)
	hash := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:8])
	}
	const (
		wantLinks = "e6313d16de82059b"
		wantTail  = "fa198b15ba3dfbc4"
	)
	if got := hash(links); got != wantLinks {
		t.Errorf("LinksSnapshot hash = %s, want %s", got, wantLinks)
	}
	if got := hash(struct {
		Links []obs.LinkLoss
		Flows int
	}{attr, n}); got != wantTail {
		t.Errorf("TailAttribution(0.01) hash = %s, want %s", got, wantTail)
	}
	// The play must keep exercising what the pin is for: full series, and
	// one point per instant on every series.
	full := 0
	for _, ls := range links {
		if len(ls.Points) == 512 {
			full++
		}
		for i := 1; i < len(ls.Points); i++ {
			if ls.Points[i].T <= ls.Points[i-1].T {
				t.Fatalf("link %d: point %d at %g follows one at %g", ls.Link, i, ls.Points[i].T, ls.Points[i-1].T)
			}
		}
	}
	if full < 8 {
		t.Errorf("%d of %d links reached the 512-point cap, want at least 8", full, len(links))
	}
	t.Logf("%d links, %d at the series cap; tail of %d flows over %d links", len(links), full, n, len(attr))
}
