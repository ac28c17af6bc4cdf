package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
)

// FlowTracer records sampled per-flow lifecycles from the leap engine:
// arrival, every rate change with its cause (solve batch, component
// size) and bottleneck link, and completion. A nil *FlowTracer costs the
// engine nothing. It has one writer and no lock: while a run is live
// only the engine's goroutine calls its methods; other goroutines read
// the copy Publish stored (/flows, /links).
//
// Every active flow's record is tracked (memory is bounded by the active
// set; lost service accumulates per segment). At completion a hash of
// the admission ordinal (Seq) keeps a SampleRate fraction, and a
// slowest-K reservoir keeps the K worst slowdowns regardless, so the
// tail attribution cares about is always captured.
//
// One type, FlowRecord, is the flow in memory, on the wire and in the
// reader. A kept record is labelled once, at completion; exports carry
// the namer's labels of export time, copying only a record whose labels
// have moved since.
type FlowTracer struct {
	cfg    FlowTraceConfig
	nameFn func(link int) string // the link-label function (SetLinkName)
	pages  published             // only Publish and Published touch it
	flowRun
}

// flowRun is a FlowTracer's per-run state, all of what Bind clears.
type flowRun struct {
	caps  []float64 // link capacities, bound by the engine
	links *LinkStats

	active  []*FlowRecord // dense by flow id; nil = untracked
	nActive int
	free    []*FlowRecord // recycled records (segment/link capacity kept)

	kept  []*FlowRecord // hash-sampled completions
	slow  []*FlowRecord // the slowest-K reservoir
	least int           // slow[least] is its least-slow entry, the next evicted

	tracked   uint64 // admissions seen
	completed uint64 // completions seen
	dropped   uint64 // completions discarded by the MaxRecords cap
}

// FlowTraceConfig parameterizes a FlowTracer. The zero value keeps
// only the slowest-K reservoir (no hash sampling).
type FlowTraceConfig struct {
	// SampleRate is the deterministic fraction of completed flows kept
	// by hash of FlowRecord.Seq (0 keeps none this way, ≥1 keeps all).
	SampleRate float64
	// SlowestK is the size of the always-keep reservoir of worst
	// slowdowns (default 64; negative disables).
	SlowestK int
	// MaxRecords caps the hash-sampled kept records (default 1<<17);
	// completions beyond it are dropped (counted, never the reservoir).
	MaxRecords int
	// MaxSegs caps the stored rate segments per record (default 512);
	// past it attribution stays exact and segments are only counted
	// (FlowRecord.Truncated).
	MaxSegs int
}

// NewFlowTracer builds a tracer; the engine binds it (Bind).
func NewFlowTracer(cfg FlowTraceConfig) *FlowTracer {
	if cfg.SlowestK == 0 {
		cfg.SlowestK = 64
	}
	cfg.SlowestK = max(cfg.SlowestK, 0)
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = 1 << 17
	}
	if cfg.MaxSegs <= 0 {
		cfg.MaxSegs = 512
	}
	return &FlowTracer{cfg: cfg}
}

// SetLinkName installs (or replaces) the link-label function used in
// exports and reports — typically a topology's LinkName once the
// network is built. Call it before the run, not while an engine plays.
func (t *FlowTracer) SetLinkName(fn func(link int) string) { t.nameFn = fn }

// linkName returns the configured label for link l, "" when no namer
// is installed or l is negative.
func (t *FlowTracer) linkName(l int) string {
	if t.nameFn != nil && l >= 0 {
		return t.nameFn(l)
	}
	return ""
}

// Cause is why a rate segment began; its text form ("admit", "solve",
// "fail", "recover") is what the JSONL trace and /flows carry.
type Cause uint8

// Causes of a rate segment.
const (
	// CauseAdmit marks a rate set on the admission fast path (isolated
	// flow, no solver involved).
	CauseAdmit Cause = iota
	// CauseSolve marks a rate set by a component solve.
	CauseSolve
	// CauseFail marks a rate set by the re-solve a link failure
	// triggered, the zero rate of a flow it stranded included.
	CauseFail
	// CauseRecover marks a rate set by the re-solve a link recovery
	// triggered, the rate that resumes a stranded flow included.
	CauseRecover
)

var causeNames = [...]string{"admit", "solve", "fail", "recover"}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "cause(" + strconv.Itoa(int(c)) + ")"
}

// MarshalText writes the cause's name.
func (c Cause) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText reads a cause's name; any other text is an error.
func (c *Cause) UnmarshalText(b []byte) error {
	for i, n := range causeNames {
		if string(b) == n {
			*c = Cause(i)
			return nil
		}
	}
	return fmt.Errorf("unknown cause %q", b)
}

// FlowSeg is one constant-rate segment of a traced flow's lifetime:
// the flow ran at Rate over [T, next segment's T) — the last segment
// ends at completion — bottlenecked by link Bneck.
type FlowSeg struct {
	T     float64 `json:"t"`     // segment start, virtual seconds
	Rate  float64 `json:"rate"`  // bits/second
	Bneck int32   `json:"bneck"` // bottleneck link id (min-slack on the flow's path)
	// Name labels Bneck (the tracer's namer; "" without one).
	Name  string `json:"bneck_name,omitempty"`
	Cause Cause  `json:"cause"`
	Comp  int32  `json:"comp"`  // flows in the component solved (1 on the fast path)
	Batch uint32 `json:"batch"` // solve-batch ordinal
}

// FlowRecord is one traced flow's lifecycle: what the tracer keeps,
// Records returns, the JSONL "flow" lines and /flows carry, and
// ReadFlowTrace reads back. A kept record is final at completion, so
// readers share it; Records copies only the reservoir's, whose storage
// an eviction recycles.
type FlowRecord struct {
	Type string `json:"type"` // "flow"
	// ID is the engine's id for the flow while it was live — a slot, not
	// a name.
	ID int `json:"id"`
	// Seq is the tracer's admission ordinal. Engine ids recycle under
	// churn (leap ReleaseFinished), so two records can share an ID; Seq
	// never does, and the hash sample and every ordering key on it.
	Seq       uint64  `json:"seq"`
	SizeBytes int64   `json:"size_bytes"`
	Arrive    float64 `json:"arrive"`
	Finish    float64 `json:"finish,omitempty"`
	Finished  bool    `json:"finished"`
	// FCT is Finish − Arrive; IdealFCT the line-rate completion time
	// SizeBytes·8 / (minimum capacity on the path), set at admission;
	// Slowdown is FCT / IdealFCT. FCT and Slowdown are 0 until completion.
	FCT      float64 `json:"fct,omitempty"`
	IdealFCT float64 `json:"ideal_fct"`
	Slowdown float64 `json:"slowdown,omitempty"`
	// Sampled is true when the hash sample kept the record (false: the
	// slowest-K reservoir did, or it is still active).
	Sampled bool `json:"sampled"`
	// Truncated counts rate segments dropped beyond the MaxSegs cap;
	// attribution is exact regardless.
	Truncated int `json:"truncated_segs,omitempty"`
	// Lost attributes lost service ∫(LineRate−rate)dt / LineRate to each
	// distinct bottleneck link, in order of first loss; it sums to
	// FCT − IdealFCT.
	Lost []LinkLoss `json:"lost,omitempty"`
	Segs []FlowSeg  `json:"segs"`

	links     []int32 // the flow's path, for link accounting
	lineRate  float64 // minimum capacity on the path
	lineBneck int32   // the link it is on: the bottleneck of segments no solver bound
	lastT     float64
	lastRate  float64
	lastBneck int32
}

// TotalLost returns the summed per-link lost service, which equals
// FCT − IdealFCT for a completed record.
func (r *FlowRecord) TotalLost() float64 {
	var s float64
	for _, l := range r.Lost {
		s += l.LostSeconds
	}
	return s
}

// label sets each loss's share and each link label from name.
func (r *FlowRecord) label(name func(int) string) {
	total := r.TotalLost()
	for i := range r.Lost {
		l := &r.Lost[i]
		l.Name = name(l.Link)
		if total > 0 {
			l.Share = l.LostSeconds / total
		}
	}
	for i := range r.Segs {
		r.Segs[i].Name = name(int(r.Segs[i].Bneck))
	}
}

// labelled reports whether every link label of r is what name says now.
func (r *FlowRecord) labelled(name func(int) string) bool {
	for _, l := range r.Lost {
		if l.Name != name(l.Link) {
			return false
		}
	}
	for _, s := range r.Segs {
		if s.Name != name(int(s.Bneck)) {
			return false
		}
	}
	return true
}

// clone returns a copy of r that shares no storage with it.
func (r *FlowRecord) clone() *FlowRecord {
	c := *r
	c.Lost = slices.Clone(r.Lost)
	c.Segs = slices.Clone(r.Segs)
	c.links = nil
	return &c
}

// Bind starts a fresh run over the network's link capacities (each
// flow's line rate and min-capacity link), keeping the configuration
// and namer. The engine calls it at construction, so a tracer handed to
// several engines in turn describes the last one bound.
func (t *FlowTracer) Bind(caps []float64) {
	t.flowRun = flowRun{caps: caps, links: newLinkStats(caps)}
}

// Admit starts tracing flow id: size bytes, arriving at arrive,
// traversing links. Engines offer every admission; unbounded flows
// (sizeBytes 0) are not traced. Like Rate and Complete it is an
// inlinable nil check, callable unguarded on a nil tracer.
func (t *FlowTracer) Admit(id int, sizeBytes int64, arrive float64, links []int) {
	if t != nil && sizeBytes > 0 {
		t.admit(id, sizeBytes, arrive, links, arrive, 0, 0)
	}
}

// AdmitRate is Admit then Rate(id, now, rate, -1, CauseAdmit, 1, batch),
// for a flow rated as it is admitted: when now is arrive, in the one
// pass over its path that leaves what the two would.
func (t *FlowTracer) AdmitRate(id int, sizeBytes int64, arrive float64, links []int, now, rate float64, batch uint64) {
	if t != nil && sizeBytes > 0 {
		t.admit(id, sizeBytes, arrive, links, now, rate, batch)
	}
}

func (t *FlowTracer) admit(id int, sizeBytes int64, arrive float64, links []int, now, rate float64, batch uint64) {
	if t.caps == nil || len(links) == 0 {
		return
	}
	lineRate, lineBneck := math.Inf(1), int32(-1)
	for _, l := range links {
		if l < 0 || l >= len(t.caps) {
			return // foreign network (tracer bound elsewhere): skip
		}
		if c := t.caps[l]; c < lineRate {
			lineRate, lineBneck = c, int32(l)
		}
	}
	if lineRate <= 0 {
		// Admitted straight onto a dead link: with no finite ideal FCT
		// to attribute lost service against, the flow is not traced (the
		// engine counts it in Stats.Stranded). A flow admitted on a
		// healthy path keeps exact attribution through later failures.
		return
	}
	for id >= len(t.active) {
		t.active = append(t.active, nil)
	}
	// A recycled record comes back emptied and with its completion
	// fields zeroed, so only the admission's fields are written.
	var r *FlowRecord
	if n := len(t.free); n > 0 {
		r, t.free = t.free[n-1], t.free[:n-1]
	} else {
		r = &FlowRecord{Type: "flow"}
	}
	r.ID, r.Seq, r.SizeBytes, r.Arrive = id, t.tracked, sizeBytes, arrive
	r.IdealFCT = float64(sizeBytes) * 8 / lineRate
	r.lineRate, r.lineBneck, r.lastT = lineRate, lineBneck, arrive
	for _, l := range links {
		r.links = append(r.links, int32(l))
	}
	// Seed a zero-rate segment at arrival so segments tile
	// [Arrive, Finish] by construction; a same-instant first solve
	// overwrites it in place.
	r.segment(arrive, 0, lineBneck, CauseAdmit, 0, 0, t.cfg.MaxSegs)
	t.active[id] = r
	t.nActive++
	t.tracked++
	if now != arrive { // rated after its admission: two passes
		t.links.addFlow(r.links, arrive, 0)
		t.setRate(id, now, rate, -1, CauseAdmit, 1, uint32(batch))
	} else if t.links.addFlow(r.links, arrive, rate); rate != 0 {
		r.segment(now, rate, lineBneck, CauseAdmit, 1, uint32(batch), t.cfg.MaxSegs)
	}
}

// Rate records flow id's rate change at virtual time now: the rate, the
// bottleneck link the solver reported (negative: the path's
// min-capacity link), the cause, the component's flow count and the
// batch ordinal. An unchanged (rate, bottleneck) continues the open
// segment; untracked ids are ignored.
func (t *FlowTracer) Rate(id int, now, rate float64, bneck int, cause Cause, comp int, batch uint64) {
	if t != nil {
		t.setRate(id, now, rate, int32(bneck), cause, int32(comp), uint32(batch))
	}
}

// Rates is Rate(ids[i], now, rates[i], bneck[i], cause, len(ids), batch)
// for each of one solved component's flows.
func (t *FlowTracer) Rates(now float64, ids []int, rates []float64, bneck []int32, cause Cause, batch uint64) {
	if t != nil {
		t.rates(now, ids, rates, bneck, cause, batch)
	}
}

func (t *FlowTracer) rates(now float64, ids []int, rates []float64, bneck []int32, cause Cause, batch uint64) {
	for i, id := range ids {
		t.setRate(id, now, rates[i], bneck[i], cause, int32(len(ids)), uint32(batch))
	}
}

func (t *FlowTracer) setRate(id int, now, rate float64, b int32, cause Cause, comp int32, batch uint32) {
	r := t.rec(id)
	if r == nil {
		return
	}
	if b < 0 {
		b = r.lineBneck
	}
	if (len(r.Segs) > 0 || r.Truncated > 0) && rate == r.lastRate && b == r.lastBneck {
		return // the open segment continues
	}
	t.links.rateDelta(r.links, rate-r.lastRate, now)
	r.segment(now, rate, b, cause, comp, batch, t.cfg.MaxSegs)
}

// segment closes the open segment at now, attributing its lost service,
// and opens one (over a zero-length one; past maxSegs only counted),
// field by field: a literal's copy would stall on its own stores.
func (r *FlowRecord) segment(now, rate float64, b int32, cause Cause, comp int32, batch uint32, maxSegs int) {
	r.account(now)
	r.lastT, r.lastRate, r.lastBneck = now, rate, b
	n := len(r.Segs)
	switch {
	case r.Truncated > 0 || n >= maxSegs:
		r.Truncated++
		return
	case n == 0 || r.Segs[n-1].T != now:
		r.Segs = append(r.Segs, FlowSeg{})
		n++
	}
	s := &r.Segs[n-1] // an active record's: Name stays "" until completion labels it
	s.T, s.Rate, s.Bneck, s.Cause, s.Comp, s.Batch = now, rate, b, cause, comp, batch
}

// account closes the record's open segment at time now, attributing
// (lineRate − rate)·Δt / lineRate seconds of lost service to the
// segment's bottleneck link.
func (r *FlowRecord) account(now float64) {
	dt := now - r.lastT
	if dt <= 0 {
		return
	}
	lost := (r.lineRate - r.lastRate) * dt / r.lineRate
	if lost == 0 {
		return
	}
	for i := range r.Lost {
		if r.Lost[i].Link == int(r.lastBneck) {
			r.Lost[i].LostSeconds += lost
			return
		}
	}
	r.Lost = append(r.Lost, LinkLoss{Link: int(r.lastBneck), LostSeconds: lost})
}

// Complete finalizes flow id at virtual time finish and keeps its
// record (hash-sampled or in the reservoir, labelled here, once, and
// never written again) or recycles it. Untracked ids are ignored.
func (t *FlowTracer) Complete(id int, finish float64) {
	if t != nil {
		t.complete(id, finish)
	}
}

func (t *FlowTracer) complete(id int, finish float64) {
	r := t.rec(id)
	if r == nil {
		return
	}
	r.Finish, r.Finished = finish, true
	r.FCT = finish - r.Arrive
	r.Slowdown = r.FCT / r.IdealFCT
	t.links.removeFlow(r.links, r.lastRate, finish)
	t.active[id] = nil
	t.nActive--
	t.completed++

	switch {
	case sampleKeep(r.Seq, t.cfg.SampleRate):
		r.Sampled = true
		if len(t.kept) >= t.cfg.MaxRecords {
			t.dropped++
			t.recycle(r)
			return
		}
		t.kept = append(t.kept, r)
	case len(t.slow) < t.cfg.SlowestK:
		if t.slow = append(t.slow, r); slowLess(r, t.slow[t.least]) {
			t.least = len(t.slow) - 1
		}
	case len(t.slow) > 0 && slowLess(t.slow[t.least], r):
		t.recycle(t.slow[t.least])
		t.slow[t.least] = r
		for i, s := range t.slow {
			if slowLess(s, t.slow[t.least]) {
				t.least = i
			}
		}
	default:
		t.recycle(r)
		return
	}
	r.account(finish) // only a kept record's losses are ever read
	r.label(t.linkName)
}

func (t *FlowTracer) rec(id int) *FlowRecord {
	if id < 0 || id >= len(t.active) {
		return nil
	}
	return t.active[id]
}

// recycle returns r to the free list emptied, as admit expects it.
func (t *FlowTracer) recycle(r *FlowRecord) {
	r.Segs, r.Lost, r.links = r.Segs[:0], r.Lost[:0], r.links[:0]
	r.Finish, r.Finished, r.FCT, r.Slowdown = 0, false, 0, 0
	r.Sampled, r.Truncated, r.lastRate = false, 0, 0
	t.free = append(t.free, r)
}

// sampleKeep is the deterministic hash sample: splitmix64 of the flow's
// admission ordinal against the rate, so the same flows are kept run
// over run however the engine recycled ids under them.
func sampleKeep(seq uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		// Exactly all: the float compare below can drop hashes that
		// round up to 2⁶⁴.
		return true
	}
	return float64(splitmix64(seq)) < rate*18446744073709551616.0 // rate·2⁶⁴
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// slowLess orders records by (slowdown, seq) ascending: the least-slow
// reservoir entry is evicted first. Ties break on Seq, which, unlike
// the engine id, does not depend on when the driver released flows.
func slowLess(a, b *FlowRecord) bool {
	if a.Slowdown != b.Slowdown {
		return a.Slowdown < b.Slowdown
	}
	return a.Seq < b.Seq
}

// Records returns the kept records (hash sample ∪ reservoir) by
// slowdown descending, labelled as the namer labels links now, in a
// slice of the caller's: hash-sampled records shared, reservoir ones
// (an eviction recycles their storage) copied, and so is a record whose
// labels moved since its completion (a link died after it finished).
func (t *FlowTracer) Records() []*FlowRecord {
	out := make([]*FlowRecord, 0, len(t.kept)+len(t.slow))
	out = append(out, t.kept...)
	for _, r := range t.slow {
		out = append(out, r.clone())
	}
	for i, r := range out {
		if !r.labelled(t.linkName) {
			out[i] = r.clone()
			out[i].label(t.linkName)
		}
	}
	sort.Slice(out, func(i, j int) bool { return slowLess(out[j], out[i]) })
	return out
}

// FlowTraceSummary is the header of the /flows endpoint and JSONL
// export: tracing totals plus sampling configuration.
type FlowTraceSummary struct {
	Schema     int     `json:"schema"` // SchemaVersion
	Tracked    uint64  `json:"tracked"`
	Active     int     `json:"active"`
	Completed  uint64  `json:"completed"`
	Kept       int     `json:"kept"`
	Reservoir  int     `json:"reservoir"`
	Dropped    uint64  `json:"dropped"`
	SampleRate float64 `json:"sample_rate"`
	SlowestK   int     `json:"slowest_k"`
}

// Summary returns the tracer's totals.
func (t *FlowTracer) Summary() FlowTraceSummary {
	return FlowTraceSummary{Schema: SchemaVersion, Tracked: t.tracked, Active: t.nActive,
		Completed: t.completed, Kept: len(t.kept), Reservoir: len(t.slow), Dropped: t.dropped,
		SampleRate: t.cfg.SampleRate, SlowestK: t.cfg.SlowestK}
}

// LinkLoss is one link's share of lost service: of one flow's (a
// FlowRecord's Lost list), or aggregated over a tail of flows.
type LinkLoss struct {
	Link        int     `json:"link"`
	Name        string  `json:"name,omitempty"`
	LostSeconds float64 `json:"lost_seconds"`
	// Share is this link's fraction of the total lost service.
	Share float64 `json:"share"`
	// Flows is how many of an aggregate's flows lost service to the
	// link (aggregates only).
	Flows int `json:"flows,omitempty"`
}

// Trace snapshots the tracer as the FlowTrace its JSONL export
// encodes: kept records by slowdown descending, then copies of the
// flows still active, then per-link statistics.
func (t *FlowTracer) Trace() *FlowTrace {
	ft := &FlowTrace{Summary: t.Summary(), Flows: t.Records()}
	for _, r := range t.active {
		if r != nil {
			c := r.clone() // an active record is still being written
			c.label(t.linkName)
			ft.Flows = append(ft.Flows, c)
		}
	}
	ft.Links = t.linkLines(t.linkName)
	return ft
}

// WriteJSONL writes the trace as JSON lines (FlowTrace.WriteJSONL).
func (t *FlowTracer) WriteJSONL(w io.Writer) error { return t.Trace().WriteJSONL(w) }

// LinksSnapshot returns the per-link statistics (LinkStats.Snapshot).
func (t *FlowTracer) LinksSnapshot() []LinkSnapshot { return t.links.Snapshot() }

// LinkLine is the JSONL "link" line (and /links entry).
type LinkLine struct {
	Type string `json:"type"`
	Name string `json:"name,omitempty"`
	LinkSnapshot
}

// FlowTrace is a flow trace at rest: what WriteJSONL writes and
// ReadFlowTrace reads back.
type FlowTrace struct {
	Summary FlowTraceSummary
	// Flows holds every "flow" line in file order: kept records by
	// slowdown descending, then the flows still active at export.
	Flows []*FlowRecord
	Links []LinkLine
}

// WriteJSONL writes the trace as JSON lines: one {"type":"summary"}
// header carrying the schema version, the flow lines, then the
// per-link {"type":"link"} statistics.
func (ft *FlowTrace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	err := enc.Encode(struct {
		Type string `json:"type"`
		FlowTraceSummary
	}{"summary", ft.Summary})
	for i := 0; i < len(ft.Flows) && err == nil; i++ {
		err = enc.Encode(ft.Flows[i])
	}
	for i := 0; i < len(ft.Links) && err == nil; i++ {
		err = enc.Encode(&ft.Links[i])
	}
	return err
}

// Finished returns the trace's finished flows, slowest first (by
// slowdown, then seq).
func (ft *FlowTrace) Finished() []*FlowRecord {
	var fin []*FlowRecord
	for _, fl := range ft.Flows {
		if fl.Finished {
			fin = append(fin, fl)
		}
	}
	sort.SliceStable(fin, func(i, j int) bool {
		a, b := fin[i], fin[j]
		if a.Slowdown != b.Slowdown {
			return a.Slowdown > b.Slowdown
		}
		return a.Seq < b.Seq
	})
	return fin
}

// TailAttribution aggregates per-link lost service over the slowest
// frac of the trace's finished flows (0 < frac < 1; any other value
// aggregates them all). It returns the links by lost service
// descending and how many flows were aggregated — the one routine
// behind the leapfct table, /flows and cmd/flowreport.
func (ft *FlowTrace) TailAttribution(frac float64) ([]LinkLoss, int) {
	fin := ft.Finished()
	n := len(fin)
	if n == 0 {
		return nil, 0
	}
	if frac > 0 && frac < 1 {
		n = min(max(int(math.Ceil(frac*float64(n))), 1), n)
	}
	byLink := map[int]*LinkLoss{}
	var total float64
	for _, fl := range fin[:n] {
		for _, l := range fl.Lost {
			a := byLink[l.Link]
			if a == nil {
				a = &LinkLoss{Link: l.Link, Name: l.Name}
				byLink[l.Link] = a
			}
			a.LostSeconds += l.LostSeconds
			a.Flows++
			total += l.LostSeconds
		}
	}
	out := make([]LinkLoss, 0, len(byLink))
	for _, a := range byLink {
		if total > 0 {
			a.Share = a.LostSeconds / total
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LostSeconds != out[j].LostSeconds {
			return out[i].LostSeconds > out[j].LostSeconds
		}
		return out[i].Link < out[j].Link
	})
	return out, n
}

// CheckSchema is the error a reader reports for a document stamped
// with any version but its own (0: no stamp at all).
func CheckSchema(got int) error {
	if got != SchemaVersion {
		return fmt.Errorf("schema %d, this reader understands schema %d", got, SchemaVersion)
	}
	return nil
}

// ReadFlowTrace decodes what WriteJSONL wrote, into the types it
// encodes from. Record types and fields it does not know are skipped;
// a stream without exactly one summary record of this SchemaVersion, or
// with a negative link id, is not a flow trace this reader accepts.
func ReadFlowTrace(r io.Reader) (*FlowTrace, error) {
	var ft FlowTrace
	summary := false
	dec := json.NewDecoder(r)
	for n := 1; ; n++ {
		var rec json.RawMessage
		var h struct {
			Type string `json:"type"`
		}
		err := dec.Decode(&rec)
		if err == io.EOF {
			break
		}
		if err == nil {
			err = json.Unmarshal(rec, &h)
		}
		switch {
		case err != nil:
		case h.Type == "summary" && summary:
			err = errors.New("a second summary record")
		case h.Type == "summary":
			summary = true
			if err = json.Unmarshal(rec, &ft.Summary); err == nil {
				err = CheckSchema(ft.Summary.Schema)
			}
		case h.Type == "flow":
			fl := new(FlowRecord)
			err = json.Unmarshal(rec, fl)
			for _, l := range fl.Lost {
				if l.Link < 0 && err == nil {
					err = fmt.Errorf("lost service on link %d", l.Link)
				}
			}
			ft.Flows = append(ft.Flows, fl)
		case h.Type == "link":
			var ll LinkLine
			if err = json.Unmarshal(rec, &ll); err == nil && ll.Link < 0 {
				err = fmt.Errorf("statistics of link %d", ll.Link)
			}
			ft.Links = append(ft.Links, ll)
		}
		if err != nil {
			return nil, fmt.Errorf("obs: flow trace record %d: %w", n, err)
		}
	}
	if !summary {
		return nil, errors.New("obs: no summary record — not a flow trace (-flowtrace-out file)")
	}
	return &ft, nil
}

// FlowsSnapshot is the /flows endpoint payload: totals, the tail
// attribution, and the top slow flows.
type FlowsSnapshot struct {
	FlowTraceSummary
	// TailFrac is the slowest fraction aggregated in Attribution.
	TailFrac    float64       `json:"tail_frac"`
	TailFlows   int           `json:"tail_flows"`
	Attribution []LinkLoss    `json:"attribution"`
	Flows       []*FlowRecord `json:"flows"`
}

// FlowsSnapshotTop builds the /flows payload off one FlowTrace of the
// kept records: the slowest topN and the TailAttribution of the slowest
// frac.
func (t *FlowTracer) FlowsSnapshotTop(topN int, frac float64) FlowsSnapshot {
	s := FlowsSnapshot{FlowTraceSummary: t.Summary(), TailFrac: frac, Flows: t.Records()}
	s.Attribution, s.TailFlows = (&FlowTrace{Flows: s.Flows}).TailAttribution(frac)
	if s.Attribution == nil {
		s.Attribution = []LinkLoss{}
	}
	s.Flows = s.Flows[:min(topN, len(s.Flows))]
	return s
}

// LinkNameOrIndex formats a link label: the bound namer's label when
// present, "link <i>" otherwise, "-" for negative ids.
func (t *FlowTracer) LinkNameOrIndex(l int) string {
	if l < 0 {
		return "-"
	}
	if name := t.linkName(l); name != "" {
		return name
	}
	return fmt.Sprintf("link %d", l)
}
