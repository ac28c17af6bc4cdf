package harness

import (
	"testing"

	"numfabric/internal/sim"
	"numfabric/internal/stats"
	"numfabric/internal/workload"
)

// The driver fingerprints pin the §6 scenario drivers on the packet
// and epoch engines the way golden_test.go pins the leap paths: FNV-64a
// over every result float, in result order, so a change to a workload
// draw, the RNG order, the event script, the convergence detector or
// the result assembly moves a constant. The constants were generated
// at PR 19's parent commit, when every driver still had one body per
// engine; regenerate one only for a change that is *meant* to alter
// simulated results, and say so in CHANGES.md.

func addAll(fp fingerprint, xs []float64) {
	for _, x := range xs {
		fp.add(x)
	}
}

// TestGoldenDriversDynamic is Figure 5's default cell (400 web-search
// flows at load 0.4) on the packet and epoch engines: every record's
// FCT, the epoch run's Oracle ideals, and the unfinished count. The
// epoch cell was regenerated when the ideals moved onto the leap
// engine (TestGoldenDynamicLeap) and when the Oracle began solving stars
// in closed form; both times its FCTs kept their bits.
func TestGoldenDriversDynamic(t *testing.T) {
	cases := []struct {
		eng        Engine
		ideals     bool
		want       string
		unfinished int
	}{
		{EnginePacket, false, "3271fb89bff58edf", 0},
		{EngineFluid, true, "947d3af45e429da9", 0},
	}
	for _, c := range cases {
		t.Run(c.eng.String(), func(t *testing.T) {
			if testing.Short() && c.eng == EnginePacket {
				t.Skip("simulation-heavy")
			}
			cfg := DefaultDynamic(NUMFabric, workload.WebSearch(), 0.4)
			cfg.SkipFluidIdeal = !c.ideals
			out := RunDynamicWith(c.eng, cfg)
			fp := newFingerprint()
			for _, r := range out.Records {
				fp.add(r.Start.Seconds())
				fp.add(r.FCT)
				if c.ideals {
					fp.add(r.IdealFCT)
				}
			}
			if got := fp.String(); got != c.want || out.Unfinished != c.unfinished {
				t.Errorf("fingerprint %s (unfinished %d), want %s (unfinished %d)",
					got, out.Unfinished, c.want, c.unfinished)
			}
		})
	}
}

func semiDynamicFingerprint(r SemiDynamicResult) string {
	fp := newFingerprint()
	addAll(fp, r.ConvergenceTimes)
	fp.add(float64(r.Unconverged))
	fp.add(float64(r.Events))
	return fp.String()
}

// TestGoldenDriversSemiDynamic is the §6.1 convergence experiment:
// the start/stop script, the per-event reference solve and the
// 95 %-within-10 %-for-Sustain detector, on packets (EWMA meters, rise
// time subtracted) and on epochs (exact rates).
func TestGoldenDriversSemiDynamic(t *testing.T) {
	// Bounds an event's batch away from both limits, so the script's
	// coin flip (a third RNG consumer, after path and victim picks) is
	// exercised; the default bounds alternate start/stop without it.
	packetCfg := func(s Scheme) SemiDynamicConfig {
		cfg := tinySemiDynamic(s)
		cfg.MinActive, cfg.MaxActive, cfg.Events = 16, 32, 5
		return cfg
	}
	fluidCfg := func(s Scheme) SemiDynamicConfig {
		cfg := DefaultSemiDynamic(s)
		cfg.MinActive, cfg.MaxActive, cfg.Events = 50, 110, 10
		return cfg
	}
	// A timeout shorter than DGD's convergence: some events give up.
	packetTimeout := packetCfg(DGD)
	packetTimeout.EventTimeout = 1500 * sim.Microsecond
	// RCP* at α = 2 takes Eq. 16's x^(-1/α) power; at α = 1 it is 1/x.
	rcpAlpha2 := packetCfg(RCP)
	rcpAlpha2.Alpha = 2
	cases := []struct {
		name string
		eng  Engine
		cfg  SemiDynamicConfig
		want string
	}{
		{"packet/numfabric", EnginePacket, packetCfg(NUMFabric), "a6b43524ced53545"},
		{"packet/dgd", EnginePacket, packetCfg(DGD), "2f733081a86e6ae6"},
		{"packet/dgd-timeout", EnginePacket, packetTimeout, "cbd5e9aa2f7199b6"},
		{"packet/rcp", EnginePacket, packetCfg(RCP), "03265223a18c58d5"},
		{"packet/rcp-alpha2", EnginePacket, rcpAlpha2, "3ed3b28c15c938f1"},
		{"fluid/numfabric", EngineFluid, fluidCfg(NUMFabric), "171028266fd51bf2"},
		{"fluid/dgd", EngineFluid, fluidCfg(DGD), "0df7b879f1b71f70"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.eng == EnginePacket {
				t.Skip("simulation-heavy")
			}
			res := RunSemiDynamicWith(c.eng, c.cfg)
			if got := semiDynamicFingerprint(res); got != c.want {
				t.Errorf("fingerprint %s (%d converged, %d unconverged, %d events), want %s",
					got, len(res.ConvergenceTimes), res.Unconverged, res.Events, c.want)
			}
		})
	}
}

// TestGoldenDriversPooling is Figure 8's per-pair tally on both
// engines, pooled and not, plus the fat-tree variant at a reduced
// size.
func TestGoldenDriversPooling(t *testing.T) {
	cases := []struct {
		name    string
		eng     Engine
		pooling bool
		want    string
	}{
		{"packet/pooled", EnginePacket, true, "5fa5343d96dc2b37"},
		{"packet/independent", EnginePacket, false, "7a220c31ab8a03ff"},
		{"fluid/pooled", EngineFluid, true, "ad431ee5c322a60c"},
		{"fluid/independent", EngineFluid, false, "e140d68935575d69"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.eng == EnginePacket {
				t.Skip("simulation-heavy")
			}
			cfg := DefaultPooling(3, c.pooling)
			cfg.Seed = 2
			if c.eng == EnginePacket {
				cfg.Measure = 3 * sim.Millisecond
			}
			fp := newFingerprint()
			addAll(fp, RunPoolingWith(c.eng, cfg).FlowThroughputs)
			if got := fp.String(); got != c.want {
				t.Errorf("fingerprint %s, want %s", got, c.want)
			}
		})
	}
	for _, c := range []struct {
		pooling bool
		want    string
	}{{true, "61ff895888dba007"}, {false, "175417ff4b1e20dc"}} {
		cfg := DefaultFatTreePooling(c.pooling)
		cfg.K, cfg.Groups, cfg.Subflows, cfg.Epochs, cfg.Seed = 4, 48, 3, 60, 3
		res := RunFatTreePooling(cfg)
		fp := newFingerprint()
		addAll(fp, res.FlowThroughputs)
		fp.add(res.Optimal)
		if got := fp.String(); got != c.want {
			t.Errorf("fat-tree pooling=%v: fingerprint %s, want %s", c.pooling, got, c.want)
		}
	}
}

// TestGoldenDriversFCT pins Figure 7's point (the DefaultFCTMin recipe
// — scheme knobs, FCT-min utility — and the line-rate normalization)
// over the dynamic driver: load, mean, median and p95 normalized FCT,
// unfinished count.
func TestGoldenDriversFCT(t *testing.T) {
	const load = 0.6
	cases := []struct {
		eng    Engine
		scheme Scheme
		want   string
	}{
		{EnginePacket, NUMFabric, "e3a56879ba8e09cf"},
		{EnginePacket, PFabric, "31315130b068b494"},
		{EngineFluid, NUMFabric, "ddfd5a1e0e07f70d"},
	}
	for _, c := range cases {
		t.Run(c.eng.String()+"/"+c.scheme.String(), func(t *testing.T) {
			if testing.Short() && c.eng == EnginePacket {
				t.Skip("simulation-heavy")
			}
			cfg := DefaultFCTMin(c.scheme, ScaledTopology(), load)
			cfg.Flows = 120
			res := RunDynamicWith(c.eng, cfg)
			norm := res.NormalizedFCTs(cfg.Topo)
			fp := newFingerprint()
			addAll(fp, []float64{load, stats.Mean(norm), stats.Median(norm), stats.Percentile(norm, 0.95), float64(res.Unfinished)})
			if got := fp.String(); got != c.want {
				t.Errorf("fingerprint %s, want %s", got, c.want)
			}
		})
	}
}

// TestGoldenDriversIncast pins the incast script on the leap engine:
// every record's start, FCT and ideal, then the per-burst maxima.
func TestGoldenDriversIncast(t *testing.T) {
	cfg := DefaultIncast()
	cfg.Seed = 5
	res := RunIncastLeap(cfg)
	fp := newFingerprint()
	for _, r := range res.Records {
		fp.add(r.Start.Seconds())
		fp.add(r.FCT)
		fp.add(r.IdealFCT)
	}
	addAll(fp, res.BurstFCTs)
	const want = "360adc9496467f18"
	if got := fp.String(); got != want || res.Unfinished != 0 {
		t.Errorf("fingerprint %s (unfinished %d), want %s", got, res.Unfinished, want)
	}
}

// TestGoldenDriversRateTrace pins Figures 4b/4c: the sampled rate of
// one flow next to its per-event Oracle rate, which rides on the
// semi-dynamic script. The second cell samples at the detector's own
// period through events that time out, so the instant each event fires
// — not only the convergence times the result reports — is pinned.
// The third cell is Figure 4b's DCTCP trace: its window law, ECN
// marking queue and retransmission timer sit under no other pin.
func TestGoldenDriversRateTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	converging := tinySemiDynamic(NUMFabric)
	converging.Events = 2
	timingOut := tinySemiDynamic(DGD)
	timingOut.MinActive, timingOut.MaxActive, timingOut.Events = 16, 32, 4
	timingOut.EventTimeout = 1500 * sim.Microsecond
	cases := []struct {
		name        string
		cfg         SemiDynamicConfig
		flowIdx     int
		sampleEvery sim.Duration
		want        string
	}{
		{"converging", converging, 1, 100 * sim.Microsecond, "da66cbca07e9aad1"},
		{"timing-out", timingOut, 0, samplePeriod, "1d4178b7aae98d2c"},
		{"dctcp", tinySemiDynamic(DCTCP), 0, 100 * sim.Microsecond, "a7d7a495419b63db"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := RunRateTrace(c.cfg, c.flowIdx, c.sampleEvery)
			fp := newFingerprint()
			addAll(fp, tr.Times)
			addAll(fp, tr.Rates)
			addAll(fp, tr.OracleRates)
			if got := fp.String(); got != c.want {
				t.Errorf("fingerprint %s (%d samples), want %s", got, len(tr.Times), c.want)
			}
		})
	}
}

// TestGoldenDriversSweepDT pins Figure 6a's loop on two points: dt in
// µs, median convergence time and unconverged events of each.
func TestGoldenDriversSweepDT(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinySemiDynamic(NUMFabric)
	cfg.Events = 2
	fp := newFingerprint()
	for _, dt := range []sim.Duration{6 * sim.Microsecond, 18 * sim.Microsecond} {
		cfg.Scheme.NUMFabric.DT = dt
		res := RunSemiDynamicWith(EnginePacket, cfg)
		fp.add(float64(dt) / 1e6)
		fp.add(res.Median())
		fp.add(float64(res.Unconverged))
	}
	const want = "d24a7465826c26bd"
	if got := fp.String(); got != want {
		t.Errorf("fingerprint %s, want %s", got, want)
	}
}

// TestGoldenDriversBWF pins the two bandwidth-function experiments
// (Figures 9 and 10), which wire their own small fabrics: the metered
// rates at the end of a capacity-sweep run, and the pooled aggregates'
// time series across the capacity step.
func TestGoldenDriversBWF(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fp := newFingerprint()
	for _, pt := range RunBWFCapacitySweep([]sim.BitRate{5 * sim.Gbps, 15 * sim.Gbps, 25 * sim.Gbps, 35 * sim.Gbps}, 5, 6*sim.Millisecond) {
		addAll(fp, []float64{pt.Capacity, pt.Flow1, pt.Flow2, pt.Want1, pt.Want2})
	}
	if got, want := fp.String(), "ed79a147972ec8ab"; got != want {
		t.Errorf("capacity sweep: fingerprint %s, want %s", got, want)
	}
	fp = newFingerprint()
	for _, s := range RunBWFPooling(5, 8*sim.Millisecond, 16*sim.Millisecond, sim.Millisecond) {
		addAll(fp, []float64{s.At.Seconds(), s.Flow1, s.Flow2})
	}
	if got, want := fp.String(), "d868a202724c36c3"; got != want {
		t.Errorf("pooling: fingerprint %s, want %s", got, want)
	}
}
