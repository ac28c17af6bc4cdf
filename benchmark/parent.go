package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// maxRounds caps how often a measurement repeats each schedule of
	// its panel, whatever the time budget says.
	maxRounds = 6
	// minPairs is the fewest paired plays -diff gives a verdict on (a
	// cli-leapfct run makes three).
	minPairs = 3
	// baselinePlays is how many untraced plays a stand-alone traced run
	// makes to price its own tracing.
	baselinePlays = 3
)

// runner starts plays as fresh child processes, so heap state never
// leaks from one play into the next, and reads each child's wall time
// and rusage from outside.
type runner struct {
	exe    string // this binary, re-executed for in-process workloads
	outDir string // traces, CLI CSVs
	cliBin string // built numfabric binary, "" until buildCLI
	buildS float64
	clock  *hostClock // built by the first measurement
	log    func(format string, args ...any)
}

// play runs one play of w in a child process.
func (r *runner) play(w *workloadSpec, seed uint64, traced, ref bool) (playResult, error) {
	if w.Kind == kindCLI {
		return r.playCLI(w, seed, false)
	}
	args := []string{"-play", w.Name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	if ref {
		args = append(args, "-ref")
	}
	var stdout bytes.Buffer
	start := time.Now()
	cmd := exec.Command(r.exe, append(args, "-t0", strconv.FormatInt(start.UnixNano(), 10))...)
	cmd.Env = playEnv()
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return playResult{}, fmt.Errorf("play %s: %w", w.Name, err)
	}
	var res playResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return playResult{}, fmt.Errorf("play %s: bad result: %w", w.Name, err)
	}
	fillUsage(&res, cmd.ProcessState, wall)
	return res, nil
}

// playEnv is the environment of every play: one processor. This host
// class lends the benchmark two virtual cores of a shared machine, and
// the second is there only some of the time. A play that leans on it
// (concurrent GC marking, worker goroutines) took 3.3–7.5 s where the
// same play on one processor took 2.5–4.4 s, so with the default the
// benchmark measured the neighbours. Parallel speed-up is not something
// this host can measure; single-core cost is.
func playEnv() []string { return append(os.Environ(), "GOMAXPROCS=1") }

// fillUsage adds what only the parent sees: exec → exit wall time and
// the child's rusage (CPU seconds and, unless the play read its own,
// peak resident set).
func fillUsage(res *playResult, st *os.ProcessState, wall time.Duration) {
	res.WallS = wall.Seconds()
	res.UserS = st.UserTime().Seconds()
	res.SysS = st.SystemTime().Seconds()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok && res.RSSMB == 0 {
		res.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// cell is one (metric, workload) entry of a record: the median over
// the panel's schedules of each schedule's estimate, with the quartiles
// over schedules and the number of plays behind them.
type cell struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Plays  int     `json:"plays"`
}

// quartiles returns the quartiles of v as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), so
// the spreads printed here are the spreads the driver checks.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// estimate is one schedule's value of metric m from its repeated plays.
// A time is their median. (The best repeat is no steadier on this host:
// an occasional play runs 15 % faster than any other.) Peak memory is
// the lowest: GC timing lets the heap overshoot by chance (12.6–35.6 MB
// over twelve repeats of one fig5-leap play, the lowest four within
// 0.2 MB of each other), never undershoot.
func estimate(m metricSpec, repeats []float64) float64 {
	if m.Name == "rss_mb" {
		return slices.Min(repeats)
	}
	_, q2, _ := quartiles(repeats)
	return q2
}

// newCell folds the plays of one measurement into metric m's cell.
func newCell(m metricSpec, plays []playSummary) cell {
	var seeds []uint64
	repeats := map[uint64][]float64{}
	for _, p := range plays {
		if _, ok := repeats[p.Seed]; !ok {
			seeds = append(seeds, p.Seed)
		}
		repeats[p.Seed] = append(repeats[p.Seed], p.value(m.Name))
	}
	est := make([]float64, len(seeds))
	for i, s := range seeds {
		est[i] = estimate(m, repeats[s])
	}
	q1, q2, q3 := quartiles(est)
	return cell{Median: q2, Q1: q1, Q3: q3, Plays: len(plays)}
}

// playSummary is what a record keeps of one untraced play, so that two
// records can be compared play by play (same sub-seed, same position).
// The times are as measured; Slowdown is how slow the host clock's
// kernel ran beside the play (1.3 = 30 % slower than nominal).
type playSummary struct {
	Seed     uint64  `json:"seed"`
	WallS    float64 `json:"wall_s"`
	SetupS   float64 `json:"setup_s"`
	CPUS     float64 `json:"cpu_s"`
	RSSMB    float64 `json:"rss_mb"`
	Finished int     `json:"finished"`
	Slowdown float64 `json:"host_slowdown"`
}

// value returns the play's sample of an end-to-end metric, its times in
// seconds of a host at nominal speed.
func (p playSummary) value(metric string) float64 {
	switch metric {
	case "flows_per_s":
		return float64(p.Finished) / (p.WallS / p.Slowdown)
	case "setup_s":
		return p.SetupS / p.Slowdown
	case "cpu_s":
		return p.CPUS / p.Slowdown
	case "rss_mb":
		return p.RSSMB
	}
	panic("no end-to-end metric " + metric)
}

// workloadRecord is everything one workload contributes to a record.
type workloadRecord struct {
	Name      string `json:"name"`
	Flows     int    `json:"flows"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// FailFrac is failed ÷ attempted flows over every play and the
	// reference check; any value above 0 fails the run.
	FailFrac float64 `json:"fail_frac"`
	Why      string  `json:"why,omitempty"`
	// Fingerprint is the FCT fingerprint of the panel's first sub-seed
	// (the one the traced play and the reference check replay).
	Fingerprint string             `json:"fct_fingerprint"`
	EndToEnd    map[string]cell    `json:"end_to_end,omitempty"`
	Plays       []playSummary      `json:"plays,omitempty"`
	Layers      map[string]float64 `json:"per_layer,omitempty"`
	// Shares is each top-level layer's share of the traced play's wall.
	Shares map[string]float64 `json:"layer_shares,omitempty"`

	fingerprints map[uint64]string
}

// absorb folds one play's verdict and layer numbers into wr (untraced
// plays carry only the sim.* statistics), and fails the workload if
// two plays of the same seed disagree on a single finish-time bit.
func (wr *workloadRecord) absorb(p playResult) {
	if wr.Layers == nil {
		wr.Layers = map[string]float64{}
		wr.fingerprints = map[uint64]string{}
	}
	for k, v := range p.Layers {
		wr.Layers[k] = v
	}
	wr.Attempted += p.Attempted
	wr.Failed += p.Failed
	if wr.Why == "" {
		wr.Why = p.Why
	}
	wr.FailFrac = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	if p.Fingerprint == "" {
		return // the reference check has none
	}
	if seen, ok := wr.fingerprints[p.Seed]; ok && seen != p.Fingerprint {
		wr.failAll(fmt.Sprintf("nondeterministic: seed %d gave fingerprint %s then %s", p.Seed, seen, p.Fingerprint))
	}
	wr.fingerprints[p.Seed] = p.Fingerprint
}

// failAll marks every attempted flow failed: a workload-level check
// (crash, nondeterminism) broke.
func (wr *workloadRecord) failAll(why string) {
	wr.Attempted = max(wr.Attempted, wr.Flows)
	wr.Failed = wr.Attempted
	wr.FailFrac = 1
	if wr.Why == "" {
		wr.Why = why
	}
}

// subSeed is the seed of the j-th schedule of w's panel. A run plays
// w.Panel distinct schedules derived from its seed: where one schedule's
// cost swings with the heavy-tailed sizes it happens to draw, a run that
// saw one would report that draw, not the program.
func subSeed(w *workloadSpec, seed uint64, j int) uint64 {
	return seed*uint64(w.Panel) + uint64(j%w.Panel)
}

// measure makes the untraced plays of w and returns the end-to-end
// cells: rounds over the panel, at least w.Rounds, then as many as fit
// in the time budget, with the host clock sampled between plays. Each
// play's slowdown is the mean of the samples before and after it.
// Workloads with a reference get their check afterwards, untimed.
func (r *runner) measure(w *workloadSpec, seed uint64, budget time.Duration) workloadRecord {
	wr := workloadRecord{Name: w.Name, Flows: w.Flows}
	if r.clock == nil {
		r.clock = newHostClock()
	}
	start := time.Now()
	before := r.clock.slowdown(0)
	for round := 0; round < maxRounds; round++ {
		if elapsed := time.Since(start); round >= w.Rounds && elapsed+elapsed/time.Duration(round) > budget {
			break
		}
		for j := 0; j < w.Panel; j++ {
			p, err := r.play(w, subSeed(w, seed, j), false, false)
			if err != nil {
				wr.failAll(err.Error())
				return wr
			}
			wr.absorb(p)
			after := r.clock.slowdown(time.Duration(p.WallS * float64(time.Second)))
			wr.Plays = append(wr.Plays, playSummary{p.Seed, p.WallS, p.SetupS, p.UserS + p.SysS, p.RSSMB, p.Finished, (before + after) / 2})
			before = after
		}
	}
	wr.EndToEnd = map[string]cell{}
	for _, m := range endToEnd {
		wr.EndToEnd[m.Name] = newCell(m, wr.Plays)
	}
	slow := make([]float64, len(wr.Plays))
	raw := append([]playSummary(nil), wr.Plays...)
	for i, p := range wr.Plays {
		slow[i], raw[i].Slowdown = p.Slowdown, 1
	}
	q1, q2, q3 := quartiles(slow)
	r.log("%s: %d plays, host slowdown median %.3f (quartiles %.3f–%.3f), flows_per_s as measured %.6g",
		w.Name, len(slow), q2, q1, q3, newCell(endToEnd[0], raw).Median)
	wr.Fingerprint = wr.fingerprints[subSeed(w, seed, 0)]
	if w.Ref {
		r.reference(w, seed, &wr)
	}
	return wr
}

// reference runs the refsim check and folds its verdict into wr.
func (r *runner) reference(w *workloadSpec, seed uint64, wr *workloadRecord) {
	p, err := r.play(w, subSeed(w, seed, 0), false, true)
	if err != nil {
		wr.failAll(err.Error())
		return
	}
	wr.absorb(p)
}

// trace makes the traced play of w (on the panel's first sub-seed) and
// stores its per-layer numbers in wr, pricing the tracing against
// that sub-seed's untraced plays in wr — made here when wr has none.
// The play's spans go to trace-<workload>.json.
func (r *runner) trace(w *workloadSpec, seed uint64, wr *workloadRecord) {
	sub := subSeed(w, seed, 0)
	var wall []float64
	for _, p := range wr.Plays {
		if p.Seed == sub {
			wall = append(wall, p.WallS)
		}
	}
	if len(wall) == 0 {
		for len(wall) < baselinePlays {
			p, err := r.play(w, sub, false, false)
			if err != nil {
				wr.failAll(err.Error())
				return
			}
			wr.absorb(p)
			wall = append(wall, p.WallS)
		}
	}
	_, untracedWall, _ := quartiles(wall)
	p, err := r.play(w, sub, true, false)
	if err != nil {
		wr.failAll(err.Error())
		return
	}
	wr.absorb(p)
	wr.Fingerprint = p.Fingerprint
	tracedWall := p.WallS
	if w.Kind == kindCLI {
		// Watching the CLI from outside costs nothing; what can cost is
		// its own hooks, priced by one more play with them attached. It
		// must reproduce the same results, and contributes nothing else.
		hooked, err := r.playCLI(w, sub, true)
		if err != nil {
			wr.failAll(err.Error())
			return
		}
		tracedWall, hooked.Layers = hooked.WallS, nil
		wr.absorb(hooked)
	}
	wr.Layers["obs.trace_overhead_frac"] = tracedWall/untracedWall - 1
	if w.Ref && wr.Layers["ref.flows"] == 0 {
		r.reference(w, seed, wr)
	}

	// The parent's own span, exec → exit, is the root of the play's
	// tree; the play's top-level spans hang off it. A nested span's
	// share is listed under its parent's name.
	spans := []span{{Name: "play " + w.Name, End: int64(p.WallS * 1e9), Parent: -1}}
	wr.Shares = map[string]float64{}
	for _, s := range p.Spans {
		name := s.Name
		if s.Parent >= 0 {
			name = p.Spans[s.Parent].Name + "/" + name
		}
		wr.Shares[name] = float64(s.End-s.Start) / 1e9 / p.WallS
		s.Parent++
		spans = append(spans, s)
	}
	if alloc, ok := wr.Layers["fluid.alloc_s"]; ok {
		// Allocator calls are aggregated, not spans; their total still
		// splits leap.run into allocator and event loop.
		wr.Shares["leap.run/fluid.alloc"] = alloc / p.WallS
		wr.Shares["leap.run/leap.self"] = wr.Layers["leap.self_s"] / p.WallS
	}
	path := filepath.Join(r.outDir, "trace-"+w.Name+".json")
	if err = os.MkdirAll(r.outDir, 0o755); err == nil {
		err = writeChromeTrace(path, spans)
	}
	if err != nil {
		r.log("trace %s: %v", w.Name, err)
	}
}
