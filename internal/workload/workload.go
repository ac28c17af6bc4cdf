// Package workload generates the traffic the paper evaluates with:
// the heavy-tailed web-search and enterprise flow-size distributions
// (§6.1 "Dynamic Workloads"), Poisson arrival processes at controlled
// load, permutation traffic (§6.3 resource pooling), and the
// semi-dynamic event script of §6.1.
package workload

import (
	"fmt"
	"math"
	"sort"

	"numfabric/internal/sim"
)

// SizeCDF is an empirical flow-size distribution: piecewise log-linear
// between (bytes, probability) points.
type SizeCDF struct {
	name string
	pts  []cdfPoint
	// logs[i] is math.Log(pts[i].bytes), taken once: a draw interpolates
	// between two of them.
	logs []float64
	// mean is Mean's value.
	mean float64
}

type cdfPoint struct {
	bytes float64
	p     float64
}

// newSizeCDF builds a CDF from points sorted by probability; the
// first point anchors the minimum size. mean is what Mean returns.
func newSizeCDF(name string, mean float64, pts []cdfPoint) *SizeCDF {
	cp := append([]cdfPoint(nil), pts...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].p < cp[j].p })
	logs := make([]float64, len(cp))
	for i, pt := range cp {
		logs[i] = math.Log(pt.bytes)
	}
	return &SizeCDF{name: name, pts: cp, logs: logs, mean: mean}
}

// Name identifies the distribution.
func (c *SizeCDF) Name() string { return c.name }

// Sample draws a flow size in bytes using inverse-transform sampling
// with log-linear interpolation between the CDF's anchor points
// (heavy-tailed distributions interpolate far better in log space).
// A u below the first anchor or above the last takes that anchor's
// size; a NaN u panics.
func (c *SizeCDF) Sample(u float64) int64 {
	pts := c.pts
	if u <= pts[0].p {
		return int64(pts[0].bytes)
	}
	if u >= pts[len(pts)-1].p {
		return int64(pts[len(pts)-1].bytes)
	}
	if math.IsNaN(u) {
		panic(fmt.Sprintf("workload: %s Sample(%v): u must be in [0, 1]", c.name, u))
	}
	// sort.Search for the first anchor with p >= u, without its closure.
	lo, hi := 0, len(pts)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); pts[h].p < u {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return c.interpolate(lo, u)
}

// interpolate is the size at quantile u on the segment that ends at
// anchor i: pts[i-1].p < u <= pts[i].p.
func (c *SizeCDF) interpolate(i int, u float64) int64 {
	lo, hi := c.pts[i-1].p, c.pts[i].p
	frac := (u - lo) / (hi - lo)
	logSize := c.logs[i-1] + frac*(c.logs[i]-c.logs[i-1])
	return int64(math.Exp(logSize))
}

// Mean returns the distribution's mean flow size in bytes: for
// WebSearch and Enterprise the numerical integration of the sampled
// inverse CDF (Sample at each of 100,000 midpoints, summed in order),
// carried as a literal that a test holds to the integration bit for
// bit; for Uniform its size.
func (c *SizeCDF) Mean() float64 { return c.mean }

// WebSearch is the web-search cluster workload of [3] used in §6.1 and
// §6.3: "about 50% of the flows are smaller than 100 KB, but 95% of
// all bytes belong to the larger 30% of the flows that are larger than
// 1 MB". Sizes are the standard DCTCP-paper anchors.
func WebSearch() *SizeCDF {
	const kb = 1 << 10
	return newSizeCDF("websearch", 1255755.50568, []cdfPoint{
		{6 * kb, 0.15},
		{13 * kb, 0.20},
		{19 * kb, 0.30},
		{33 * kb, 0.40},
		{53 * kb, 0.53},
		{133 * kb, 0.60},
		{667 * kb, 0.70},
		{1467 * kb, 0.80},
		{3333 * kb, 0.90},
		{6667 * kb, 0.95},
		{20000 * kb, 1.00},
	})
}

// Enterprise is the large-enterprise workload of [4] used in §6.1:
// "also heavy-tailed, but has many more short flows with 95% of the
// flows smaller than 10 KB", with ~70% of flows of only 1–2 packets.
func Enterprise() *SizeCDF {
	const kb = 1 << 10
	return newSizeCDF("enterprise", 47349.16486, []cdfPoint{
		{1 * kb, 0.45},
		{2 * kb, 0.62},
		{3 * kb, 0.70},
		{5 * kb, 0.80},
		{7 * kb, 0.90},
		{10 * kb, 0.95},
		{30 * kb, 0.97},
		{100 * kb, 0.98},
		{1000 * kb, 0.99},
		{10000 * kb, 1.00},
	})
}

// Uniform returns a degenerate CDF that always yields size bytes; it
// makes deterministic tests easy.
func Uniform(size int64) *SizeCDF {
	return newSizeCDF("uniform", float64(size), []cdfPoint{{float64(size), 1}})
}

// Arrival describes one flow arrival in a dynamic workload.
type Arrival struct {
	At   sim.Time
	Src  int
	Dst  int
	Size int64
}

// PoissonConfig parameterizes a Poisson open-loop workload on a fabric
// of Hosts hosts whose access links run at HostLink.
type PoissonConfig struct {
	Hosts    int
	HostLink sim.BitRate
	// Load is the target average utilization of the aggregate host
	// bandwidth (the paper sweeps 0.2–0.8).
	Load float64
	// CDF draws flow sizes.
	CDF *SizeCDF
	// Duration bounds the arrival horizon.
	Duration sim.Duration
	// MaxFlows, if > 0, caps the number of arrivals.
	MaxFlows int
}

// PoissonGen draws a Poisson flow arrival schedule one arrival at a
// time: arrivals form a Poisson process with rate λ = Load × Hosts ×
// HostLink / meanSize, and each flow picks a uniform random source and
// a distinct uniform random destination. A copy of a generator given
// its own RNG continues independently of the original — a copy taken
// before the first Next replays the schedule from a copy of the RNG
// state it was made with.
type PoissonGen struct {
	// RNG is the stream the next arrival draws from.
	RNG *sim.RNG

	cfg    PoissonConfig
	lambda float64 // flows per second
	t      sim.Time
	n      int
	ended  bool
}

// NewPoisson returns the generator of cfg's schedule over rng.
func NewPoisson(cfg PoissonConfig, rng *sim.RNG) *PoissonGen {
	// Bits per second the workload must inject to hit the load target.
	aggregate := cfg.Load * float64(cfg.Hosts) * cfg.HostLink.Float()
	return &PoissonGen{RNG: rng, cfg: cfg, lambda: aggregate / (cfg.CDF.Mean() * 8)}
}

// Next returns the next arrival, and false once the schedule has ended:
// past cfg.Duration, or after cfg.MaxFlows arrivals. It is Draw plus
// the size at Draw's quantile.
func (g *PoissonGen) Next() (Arrival, bool) {
	a, u, ok := g.Draw()
	if ok {
		a.Size = g.cfg.CDF.Sample(u)
	}
	return a, ok
}

// Draw is Next without the size: it makes every draw Next makes — the
// gap, the source, the destination and the size quantile u — and leaves
// the RNG and the clock where Next leaves them, but returns u in place
// of the interpolated size. A pass that only counts the schedule or
// finds its last instant draws with it.
func (g *PoissonGen) Draw() (a Arrival, u float64, ok bool) {
	// A non-positive (or NaN) rate offers no traffic: the schedule is
	// empty. Without this guard, λ = 0 made every gap +Inf, whose
	// implementation-defined float→int64 conversion wrapped t negative
	// so the `t > Duration` horizon check never tripped — an infinite
	// loop for Load = 0 (or an astronomically large mean flow size).
	if g.ended || !(g.lambda > 0) || (g.cfg.MaxFlows > 0 && g.n >= g.cfg.MaxFlows) {
		return Arrival{}, 0, false
	}
	g.t = g.t.Add(sim.Seconds(g.RNG.ExpFloat64() / g.lambda))
	if g.t > sim.Time(g.cfg.Duration) {
		g.ended = true
		return Arrival{}, 0, false
	}
	src := g.RNG.Intn(g.cfg.Hosts)
	dst := g.RNG.Intn(g.cfg.Hosts - 1)
	if dst >= src {
		dst++
	}
	g.n++
	return Arrival{At: g.t, Src: src, Dst: dst}, g.RNG.Float64(), true
}

// Poisson collects PoissonGen's whole schedule.
func Poisson(cfg PoissonConfig, rng *sim.RNG) []Arrival {
	var out []Arrival
	for g := NewPoisson(cfg, rng); ; {
		a, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// Permutation returns a one-to-one traffic pattern: sender i in the
// first half sends to receiver perm(i) in the second half, as in the
// MPTCP evaluation §6.3 replicates ("servers 1–64 each send to one
// server among 65–128").
func Permutation(hosts int, rng *sim.RNG) [][2]int {
	half := hosts / 2
	perm := rng.Perm(half)
	out := make([][2]int, half)
	for i := 0; i < half; i++ {
		out[i] = [2]int{i, half + perm[i]}
	}
	return out
}

// IncastConfig parameterizes an incast workload: bursts of Senders
// synchronized flows, all destined for one Receiver host (the §6.1
// burst scenario — partition/aggregate applications fan a request out
// and every worker answers at once).
type IncastConfig struct {
	// Hosts is the fabric size; senders are drawn from the other
	// Hosts−1 hosts.
	Hosts int
	// Receiver is the common destination host.
	Receiver int
	// Senders is the fan-in per burst, capped at Hosts−1.
	Senders int
	// SizeBytes is each sender's payload.
	SizeBytes int64
	// Bursts is how many bursts arrive, the first at time 0.
	Bursts int
	// Interval separates consecutive bursts.
	Interval sim.Duration
}

// Incast generates the burst arrival schedule: burst k arrives at
// exactly k × Interval (every flow of a burst shares one timestamp —
// the synchronization is the point), from a fresh random subset of
// distinct senders, none of them the receiver.
func Incast(cfg IncastConfig, rng *sim.RNG) []Arrival {
	n := cfg.Senders
	if max := cfg.Hosts - 1; n > max {
		n = max
	}
	out := make([]Arrival, 0, n*cfg.Bursts)
	for b := 0; b < cfg.Bursts; b++ {
		at := sim.Time(0).Add(sim.Duration(b) * cfg.Interval)
		perm := rng.Perm(cfg.Hosts - 1)
		for i := 0; i < n; i++ {
			src := perm[i]
			if src >= cfg.Receiver {
				src++
			}
			out = append(out, Arrival{At: at, Src: src, Dst: cfg.Receiver, Size: cfg.SizeBytes})
		}
	}
	return out
}

// CoflowConfig parameterizes a synchronized coflow workload: grid
// instants at which several fan-in bursts arrive at once, each burst
// being Senders equal-size flows (partition/aggregate applications
// fan a request out and every worker answers together — the §6.1
// incast pattern, replicated across many receivers and repeated at a
// controlled load).
type CoflowConfig struct {
	Hosts    int
	HostLink sim.BitRate
	// Load is the target average utilization of the aggregate host
	// bandwidth, as in PoissonConfig: the grid spacing is derived so
	// the injected bytes hit it in expectation.
	Load float64
	// CDF draws each burst's per-flow size, rounded up to a power of
	// two: coarse size classes make concurrent bursts collide on size,
	// so bursts that share a size (and each drain at the receiver's
	// fair share) complete in the same instant — the completion-side
	// synchronization that makes the workload batch end to end.
	CDF *SizeCDF
	// Senders is the fan-in per burst (flows per coflow), capped at
	// its locality block's size minus one.
	Senders int
	// Bursts is how many coflows share each grid instant, each in its
	// own locality block (distinct within an instant when Groups ≥
	// Bursts).
	Bursts int
	// Groups partitions the hosts into equal contiguous locality
	// blocks (a k-ary fat-tree's pods are blocks of k²/4 consecutive
	// hosts, so Groups = k matches them). Each burst confines its
	// receiver and senders to one block, which keeps concurrent bursts
	// in distinct blocks link-disjoint end to end — the disjoint
	// components a parallel solver feeds on. ≤ 1 spans the fabric.
	Groups int
	// MaxFlows caps the total arrivals.
	MaxFlows int
}

// pow2Ceil rounds v up to the next power of two.
func pow2Ceil(v int64) int64 {
	p := int64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// Coflows generates the synchronized coflow schedule: instant k holds
// Bursts × Senders arrivals at exactly k × Δ (Δ derived from Load),
// grouped into Bursts coflows of one power-of-two size each, every
// coflow fanning distinct random senders into its own receiver.
func Coflows(cfg CoflowConfig, rng *sim.RNG) []Arrival {
	groups := cfg.Groups
	if groups <= 1 || groups > cfg.Hosts {
		groups = 1
	}
	block := cfg.Hosts / groups
	n := cfg.Senders
	if max := block - 1; n > max {
		n = max
	}
	if n <= 0 || cfg.Bursts <= 0 || cfg.MaxFlows <= 0 {
		return nil
	}
	// Mean burst-flow size under power-of-two rounding, by numerical
	// integration (as SizeCDF.Mean, post-rounding).
	const steps = 10000
	mean := 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		mean += float64(pow2Ceil(cfg.CDF.Sample(u)))
	}
	mean /= steps
	aggregate := cfg.Load * float64(cfg.Hosts) * cfg.HostLink.Float()
	if !(aggregate > 0) {
		return nil
	}
	// Bytes per instant / aggregate bit rate = grid spacing.
	delta := sim.Seconds(float64(cfg.Bursts*n) * mean * 8 / aggregate)
	if delta <= 0 {
		return nil
	}
	out := make([]Arrival, 0, cfg.MaxFlows)
	for k := 0; ; k++ {
		at := sim.Time(0).Add(sim.Duration(k) * sim.Duration(delta))
		gperm := rng.Perm(groups)
		for b := 0; b < cfg.Bursts; b++ {
			base := gperm[b%groups] * block
			dst := base + rng.Intn(block)
			size := pow2Ceil(cfg.CDF.Sample(rng.Float64()))
			perm := rng.Perm(block - 1)
			for i := 0; i < n; i++ {
				src := base + perm[i]
				if src >= dst {
					src++
				}
				out = append(out, Arrival{At: at, Src: src, Dst: dst, Size: size})
				if len(out) >= cfg.MaxFlows {
					return out
				}
			}
		}
	}
}

// RandomPairs returns n random (src, dst) pairs with src ≠ dst, the
// path population for the semi-dynamic scenario ("we randomly pair
// 1000 senders and receivers among the 128 servers").
func RandomPairs(hosts, n int, rng *sim.RNG) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		out[i] = [2]int{src, dst}
	}
	return out
}
