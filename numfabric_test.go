package numfabric

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestFacadeQuickstart(t *testing.T) {
	fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
	a := fab.StartFlow(0, 9, 0, ProportionalFair())
	b := fab.StartFlow(1, 9, 0, ProportionalFair())
	fab.Run(5 * time.Millisecond)
	for i, fl := range []*Flow{a, b} {
		if got := fl.Rate(); math.Abs(got-5e9)/5e9 > 0.1 {
			t.Errorf("flow %d rate = %.3g, want ~5e9", i, got)
		}
	}
	if fab.Now() < 5*time.Millisecond {
		t.Errorf("Now() = %v, want >= 5ms", fab.Now())
	}
}

func TestFacadeSizedFlowCompletes(t *testing.T) {
	fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
	fl := fab.StartSizedFlow(0, 9, 0, 1<<20, ProportionalFair())
	fab.Run(20 * time.Millisecond)
	if !fl.Done() {
		t.Fatal("flow incomplete")
	}
	if fl.FCT() <= 0 || fl.FCT() > 5*time.Millisecond {
		t.Errorf("FCT = %v", fl.FCT())
	}
}

func TestFacadeOracleMatchesMeasured(t *testing.T) {
	fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
	u := ProportionalFair()
	a := fab.StartFlow(0, 9, 0, u)
	b := fab.StartFlow(1, 9, 1, u)
	fab.Run(5 * time.Millisecond)
	want := fab.OracleRates([]Utility{u, u})
	for i, fl := range []*Flow{a, b} {
		if math.Abs(fl.Rate()-want[i])/want[i] > 0.1 {
			t.Errorf("flow %d rate %.3g vs oracle %.3g", i, fl.Rate(), want[i])
		}
	}
}

func TestFacadeWeightedPriority(t *testing.T) {
	fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
	lo := fab.StartFlow(0, 9, 0, WeightedAlphaFair(1, 1))
	hi := fab.StartFlow(1, 9, 0, WeightedAlphaFair(1, 3))
	fab.Run(8 * time.Millisecond)
	ratio := hi.Rate() / lo.Rate()
	if ratio < 2.4 || ratio > 3.6 {
		t.Errorf("weighted ratio = %.2f, want ~3", ratio)
	}
}

func TestFacadeBandwidthFunction(t *testing.T) {
	b, err := NewBandwidthFunction([]BWPoint{
		{FairShare: 0, Bandwidth: 0},
		{FairShare: 1, Bandwidth: 10e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	u := BandwidthFunctionUtility(b, 5)
	if u.Marginal(5e9) <= u.Marginal(8e9) {
		// Marginal must decrease in rate.
		t.Error("BW utility marginal not decreasing")
	}
}

func TestFacadeStopFlow(t *testing.T) {
	fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
	a := fab.StartFlow(0, 9, 0, ProportionalFair())
	b := fab.StartFlow(1, 9, 0, ProportionalFair())
	fab.Run(3 * time.Millisecond)
	a.Stop()
	fab.Run(3 * time.Millisecond)
	// b should ramp to the full NIC once a stops.
	if got := b.Rate(); math.Abs(got-1e10)/1e10 > 0.1 {
		t.Errorf("survivor rate = %.3g, want ~10e9", got)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if WebSearchWorkload().Mean() < 100<<10 {
		t.Error("web search mean too small")
	}
	if EnterpriseWorkload().Mean() > 500<<10 {
		t.Error("enterprise mean too large")
	}
}

func TestFacadeOtherSchemes(t *testing.T) {
	for _, s := range []Scheme{SchemeDGD, SchemeRCP, SchemeDCTCP} {
		fab := NewFabric(ScaledFabric(), s)
		fl := fab.StartFlow(0, 9, 0, ProportionalFair())
		fab.Run(8 * time.Millisecond)
		if got := fl.Rate(); got < 5e9 {
			t.Errorf("%v solo flow = %.3g, want near line rate", s, got)
		}
	}
}

func TestFacadeSRPTFlow(t *testing.T) {
	fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
	fl := fab.StartSRPTFlow(0, 9, 0, 1<<20)
	fab.Run(20 * time.Millisecond)
	if !fl.Done() {
		t.Fatal("SRPT flow incomplete")
	}
}

func TestFacadeDeadlineFlow(t *testing.T) {
	fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
	fl := fab.StartDeadlineFlow(0, 9, 0, 1<<20, 10*time.Millisecond)
	fab.Run(20 * time.Millisecond)
	if !fl.Done() {
		t.Fatal("deadline flow incomplete")
	}
	if fl.FCT() > 10*time.Millisecond {
		t.Errorf("missed a very loose deadline: FCT=%v", fl.FCT())
	}
}

func TestFacadeTenants(t *testing.T) {
	fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
	a := fab.NewTenant("A")
	bten := fab.NewTenant("B")
	a.AddFlow(0, 9, 0, ProportionalFair())
	a.AddFlow(1, 9, 1, ProportionalFair())
	a.AddFlow(2, 9, 0, ProportionalFair())
	bten.AddFlow(3, 9, 1, ProportionalFair())
	fab.Run(15 * time.Millisecond)
	ra, rb := a.Rate(), bten.Rate()
	if ra+rb < 8e9 {
		t.Errorf("total tenant rate %.3g, want ~10G", ra+rb)
	}
	if ratio := ra / rb; ratio < 0.6 || ratio > 1.7 {
		t.Errorf("tenant split %.2f:1, want ~1:1", ratio)
	}
}

func TestFacadeAggregateFlow(t *testing.T) {
	fab := NewFabric(ScaledFabric(), SchemeNUMFabric)
	agg := fab.StartAggregateFlow(0, 9, []int{0, 1}, ProportionalFair())
	fab.Run(8 * time.Millisecond)
	if got := agg.Rate(); math.Abs(got-1e10)/1e10 > 0.15 {
		t.Errorf("aggregate rate = %.3g, want ~10G", got)
	}
	if len(agg.Subflows()) != 2 {
		t.Error("subflow count")
	}
	agg.Stop()
}

func TestFacadeLeapEngine(t *testing.T) {
	if e, err := ParseEngine("leap"); err != nil || e != EngineLeap {
		t.Fatalf("ParseEngine(leap) = %v, %v", e, err)
	}
	cfg := DefaultDynamic(SchemeNUMFabric, WebSearchWorkload(), 0.2)
	cfg.Flows = 30
	cfg.SkipFluidIdeal = true
	res := RunDynamicWith(EngineLeap, cfg)
	if len(res.Records)+res.Unfinished != cfg.Flows {
		t.Errorf("leap: %d records + %d unfinished != %d flows",
			len(res.Records), res.Unfinished, cfg.Flows)
	}
}

func TestFacadeIncastLeap(t *testing.T) {
	cfg := DefaultIncast()
	cfg.Bursts = 2
	res := RunIncastLeap(cfg)
	if res.Unfinished != 0 || len(res.BurstFCTs) != 2 {
		t.Fatalf("incast: %d unfinished, %d bursts", res.Unfinished, len(res.BurstFCTs))
	}
	ideal := float64(cfg.Senders) * float64(cfg.SizeBytes) * 8 / cfg.Topo.HostLink.Float()
	for b, fct := range res.BurstFCTs {
		if fct < ideal || fct > 1.2*ideal {
			t.Errorf("burst %d completion %.4g, want within [1, 1.2]x of %.4g", b, fct, ideal)
		}
	}
}

// TestFabricRejectsHostileInputs: a spine below 0, a host outside
// [0, Hosts), a fabric without spines and a negative flow size each
// panic naming the input — not with an index out of range or a divide
// by zero, and not by building a flow that never sends.
func TestFabricRejectsHostileInputs(t *testing.T) {
	u := ProportionalFair()
	noSpines := ScaledFabric()
	noSpines.Spines = 0
	type row struct {
		name string
		run  func()
		want string
	}
	rows := []row{
		{"negative spine", func() { NewFabric(ScaledFabric(), SchemeNUMFabric).StartFlow(0, 9, -1, u) }, "spine -1"},
		{"negative aggregate spine", func() { NewFabric(ScaledFabric(), SchemeNUMFabric).StartAggregateFlow(0, 9, []int{0, -2}, u) }, "spine -2"},
		{"host past the fabric", func() { NewFabric(ScaledFabric(), SchemeNUMFabric).StartFlow(0, 99, 0, u) }, "hosts 0→99, want both in [0, 32)"},
		{"negative host", func() { NewFabric(ScaledFabric(), SchemeNUMFabric).StartFlow(-1, 9, 0, u) }, "hosts -1→9, want both in [0, 32)"},
		{"no spines", func() { NewFabric(noSpines, SchemeNUMFabric).StartFlow(0, 9, 0, u) }, "Spines = 0"},
	}
	for _, s := range []Scheme{SchemeNUMFabric, SchemeDGD, SchemeRCP, SchemeDCTCP, SchemePFabric} {
		rows = append(rows, row{"negative size under " + s.String(), func() {
			fab := NewFabric(ScaledFabric(), s)
			fab.StartSizedFlow(0, 9, 0, -5, u)
			fab.Run(5 * time.Millisecond)
		}, "size = -5"})
	}
	for _, r := range rows {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			r.run()
			return
		}()
		if !strings.Contains(msg, r.want) {
			t.Errorf("%s: panic %q, want one naming %q", r.name, msg, r.want)
		}
	}
}
