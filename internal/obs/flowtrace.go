package obs

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// FlowTracer records sampled per-flow lifecycles from the leap engine:
// arrival, every rate change with its cause (solve batch, component
// size), the bottleneck link binding each rate segment,
// and completion. It follows the package's nil-guarded discipline — a
// nil *FlowTracer costs the engine nothing — and every mutating method
// is called from the engine's event-loop goroutine only; an internal
// mutex makes the HTTP snapshot and export paths safe to call
// concurrently from other goroutines.
//
// While a flow is active its record is always tracked (memory is
// bounded by the engine's active set, and per-link lost-service
// attribution accumulates incrementally with O(path length) state per
// flow). The keep decision happens at completion: a deterministic hash
// of the admission ordinal (Seq) keeps a SampleRate fraction, and a slowest-K
// reservoir keeps the K worst slowdowns regardless — so the tail that
// tail-latency attribution cares about is always captured.
type FlowTracer struct {
	mu sync.Mutex

	cfg   FlowTraceConfig
	caps  []float64 // link capacities, bound by the engine
	links *LinkStats

	active  []*FlowRecord // dense by flow id; nil = untracked
	nActive int
	free    []*FlowRecord // recycled records (segment/link capacity kept)

	kept []*FlowRecord // hash-sampled completions
	slow slowHeap      // the slowest-K reservoir

	tracked   uint64 // admissions seen
	completed uint64 // completions seen
	dropped   uint64 // completions discarded by the MaxRecords cap

	// nameFn is the link-label function, held atomically so callers can
	// install a topology-aware namer (SetLinkName) after construction
	// while HTTP readers format labels concurrently.
	nameFn atomic.Pointer[func(link int) string]
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
	// MaxSegs caps the stored rate segments per record (default 512).
	// Attribution stays exact past the cap — per-link lost service
	// accumulates incrementally — but segment detail is truncated and
	// counted in FlowRecord.Truncated.
	MaxSegs int
}

// NewFlowTracer builds a tracer; the engine binds link capacities at
// construction via Bind.
func NewFlowTracer(cfg FlowTraceConfig) *FlowTracer {
	if cfg.SlowestK == 0 {
		cfg.SlowestK = 64
	}
	if cfg.SlowestK < 0 {
		cfg.SlowestK = 0
	}
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
// network is built. Safe to call while snapshots are being served.
func (t *FlowTracer) SetLinkName(fn func(link int) string) {
	if fn == nil {
		return
	}
	t.nameFn.Store(&fn)
}

// linkName returns the configured label for link l, "" when no namer
// is installed or l is negative.
func (t *FlowTracer) linkName(l int) string {
	if l < 0 {
		return ""
	}
	if p := t.nameFn.Load(); p != nil {
		return (*p)(l)
	}
	return ""
}

// Reset clears all per-run state — active records, kept/reservoir
// completions, counters, link statistics, and the capacity binding —
// keeping the sampling configuration, so one tracer (and the debug
// endpoints holding it) can serve several engine runs in sequence.
func (t *FlowTracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.caps = nil
	t.links = nil
	t.active = nil
	t.nActive = 0
	t.free = nil
	t.kept = nil
	t.slow = nil
	t.tracked, t.completed, t.dropped = 0, 0, 0
}

// Causes of a rate segment.
const (
	// CauseAdmit marks a rate set on the admission fast path (isolated
	// flow, no solver involved).
	CauseAdmit uint8 = iota
	// CauseSolve marks a rate set by a component solve.
	CauseSolve
	// CauseFail marks a rate set by the re-solve a link failure
	// triggered — including the zero rate of a flow the failure
	// stranded.
	CauseFail
	// CauseRecover marks a rate set by the re-solve a link recovery
	// triggered — including the positive rate that resumes a stranded
	// flow.
	CauseRecover
)

func causeName(c uint8) string {
	switch c {
	case CauseAdmit:
		return "admit"
	case CauseFail:
		return "fail"
	case CauseRecover:
		return "recover"
	}
	return "solve"
}

// FlowSeg is one constant-rate segment of a traced flow's lifetime:
// the flow ran at Rate over [T, next segment's T) — the last segment
// ends at completion — bottlenecked by link Bneck.
type FlowSeg struct {
	T     float64 // segment start, virtual seconds
	Rate  float64 // bits/second
	Bneck int32   // bottleneck link id (min-slack on the flow's path)
	Cause uint8   // CauseAdmit, CauseSolve, CauseFail, or CauseRecover
	Comp  int32   // flows in the component solved (1 on the fast path)
	Batch uint32  // solve-batch ordinal
}

// FlowRecord is one traced flow's lifecycle. All fields are final
// after completion; LostLinks/LostSecs are the flow's slowdown
// attribution — parallel slices mapping each distinct bottleneck link
// to the service time lost to it, summing to FCT − IdealFCT.
type FlowRecord struct {
	// ID is the engine's id for the flow while it was live — a slot, not
	// a name.
	ID int
	// Seq is the tracer's admission ordinal. Engine flow ids recycle
	// under table-backed churn (fluid.FlowTable + leap ReleaseFinished:
	// the id space is bounded by the peak live set), so two records in
	// one trace can share an ID; Seq is the identity that never does,
	// and the one the hash sample and every ordering key on.
	Seq       uint64
	SizeBytes int64
	Arrive    float64
	// LineRate is the flow's ideal rate: the minimum capacity along
	// its path. IdealFCT = SizeBytes·8 / LineRate.
	LineRate float64
	// LineBneck is the path's minimum-capacity link — the bottleneck
	// attributed to segments the solver didn't bind (fast-path admits
	// and elided single-flow components run at LineRate).
	LineBneck int32
	Finish    float64
	Finished  bool
	// Sampled is true when the record was kept by the deterministic
	// hash sample (false: kept by the slowest-K reservoir, or still
	// active).
	Sampled bool
	// Truncated counts rate segments dropped beyond the MaxSegs cap;
	// attribution is exact regardless.
	Truncated int
	Segs      []FlowSeg
	// LostLinks/LostSecs attribute lost service ∫(LineRate−rate)dt /
	// LineRate to each distinct bottleneck link.
	LostLinks []int32
	LostSecs  []float64

	links     []int32 // the flow's path, for link accounting
	lastT     float64
	lastRate  float64
	lastBneck int32
}

// FCT returns the flow's completion time minus arrival.
func (r *FlowRecord) FCT() float64 { return r.Finish - r.Arrive }

// IdealFCT returns the line-rate completion time SizeBytes·8/LineRate.
func (r *FlowRecord) IdealFCT() float64 {
	return float64(r.SizeBytes) * 8 / r.LineRate
}

// Slowdown returns FCT / IdealFCT.
func (r *FlowRecord) Slowdown() float64 { return r.FCT() / r.IdealFCT() }

// TotalLost returns the summed per-link lost service, which equals
// FCT − IdealFCT for a completed record.
func (r *FlowRecord) TotalLost() float64 {
	var s float64
	for _, v := range r.LostSecs {
		s += v
	}
	return s
}

// Bind gives the tracer the network's link capacities; the engine
// calls it once at construction. Capacities determine each flow's
// line rate and min-capacity bottleneck, and size the per-link stats.
func (t *FlowTracer) Bind(caps []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.caps != nil {
		return // one engine per tracer; keep the first binding
	}
	t.caps = caps
	t.links = newLinkStats(caps)
}

// Admit starts tracing flow id: size bytes, arriving at arrive,
// traversing links. Engines offer every admission; group members and
// unbounded flows (sizeBytes 0) are not traced. Like Rate and Complete
// it is an inlinable nil check, callable unguarded on a nil tracer.
func (t *FlowTracer) Admit(id int, sizeBytes int64, arrive float64, links []int) {
	if t != nil && sizeBytes > 0 {
		t.admit(id, sizeBytes, arrive, links)
	}
}

func (t *FlowTracer) admit(id int, sizeBytes int64, arrive float64, links []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
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
		// Admitted straight onto a dead (failed) link: no finite ideal
		// FCT exists to attribute lost service against, so the flow is
		// not traced. The engine still counts it in Stats.Stranded, and
		// flows admitted while their path was healthy keep exact
		// attribution through any later failure (stranded time accrues
		// in full against the failed bottleneck).
		return
	}
	for id >= len(t.active) {
		t.active = append(t.active, nil)
	}
	var r *FlowRecord
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		r = &FlowRecord{}
	}
	for _, l := range links {
		r.links = append(r.links, int32(l))
	}
	r.ID = id
	r.Seq = uint64(t.tracked)
	r.SizeBytes = sizeBytes
	r.Arrive = arrive
	r.LineRate = lineRate
	r.LineBneck = lineBneck
	r.Finish = math.NaN()
	r.Finished = false
	r.Sampled = false
	r.Truncated = 0
	r.lastT = arrive
	r.lastRate = 0
	r.lastBneck = lineBneck
	// Seed a zero-rate segment at arrival so segments tile
	// [Arrive, Finish] by construction; a same-instant first solve
	// overwrites it in place.
	r.Segs = append(r.Segs, FlowSeg{T: arrive, Bneck: lineBneck, Cause: CauseAdmit})
	t.active[id] = r
	t.nActive++
	t.tracked++
	t.links.addFlow(r.links, arrive)
}

// Rate records a rate change for flow id at virtual time now: the new
// rate, the bottleneck link the solver reported (negative: attribute
// to the path's min-capacity link), the cause, the solved component's
// flow count, and the solve batch ordinal. Unchanged
// (rate, bottleneck) pairs coalesce into the open segment; untracked
// ids are ignored, so callers need not re-check the tracing scope.
func (t *FlowTracer) Rate(id int, now, rate float64, bneck int, cause uint8, comp int, batch uint64) {
	if t != nil {
		t.rate(id, now, rate, bneck, cause, comp, batch)
	}
}

func (t *FlowTracer) rate(id int, now, rate float64, bneck int, cause uint8, comp int, batch uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rec(id)
	if r == nil {
		return
	}
	b := int32(bneck)
	if b < 0 {
		b = r.LineBneck
	}
	if (len(r.Segs) > 0 || r.Truncated > 0) && rate == r.lastRate && b == r.lastBneck {
		return // the open segment continues
	}
	// Close the open segment [lastT, now): attribute its lost service.
	r.account(now)
	t.links.rateDelta(r.links, rate-r.lastRate, now)
	seg := FlowSeg{T: now, Rate: rate, Bneck: b, Cause: cause,
		Comp: int32(comp), Batch: uint32(batch)}
	switch n := len(r.Segs); {
	case r.Truncated > 0 || n >= t.cfg.MaxSegs:
		r.Truncated++
	case n > 0 && r.Segs[n-1].T == now:
		r.Segs[n-1] = seg // zero-length segment: overwrite in place
	default:
		r.Segs = append(r.Segs, seg)
	}
	r.lastT, r.lastRate, r.lastBneck = now, rate, b
}

// account closes the record's open segment at time now, attributing
// (LineRate − rate)·Δt / LineRate seconds of lost service to the
// segment's bottleneck link.
func (r *FlowRecord) account(now float64) {
	dt := now - r.lastT
	if dt <= 0 {
		return
	}
	lost := (r.LineRate - r.lastRate) * dt / r.LineRate
	if lost == 0 {
		return
	}
	for i, l := range r.LostLinks {
		if l == r.lastBneck {
			r.LostSecs[i] += lost
			return
		}
	}
	r.LostLinks = append(r.LostLinks, r.lastBneck)
	r.LostSecs = append(r.LostSecs, lost)
}

// Complete finalizes flow id at virtual time finish and decides
// whether the record is kept: hash-sampled, reservoir-kept, or
// recycled. Untracked ids are ignored.
func (t *FlowTracer) Complete(id int, finish float64) {
	if t != nil {
		t.complete(id, finish)
	}
}

func (t *FlowTracer) complete(id int, finish float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rec(id)
	if r == nil {
		return
	}
	r.account(finish)
	r.Finish = finish
	r.Finished = true
	t.links.removeFlow(r.links, r.lastRate, finish)
	t.active[id] = nil
	t.nActive--
	t.completed++

	if sampleKeep(r.Seq, t.cfg.SampleRate) {
		r.Sampled = true
		if len(t.kept) < t.cfg.MaxRecords {
			t.kept = append(t.kept, r)
		} else {
			t.dropped++
			t.recycle(r)
		}
		return
	}
	if t.cfg.SlowestK > 0 {
		if len(t.slow) < t.cfg.SlowestK {
			heap.Push(&t.slow, r)
			return
		}
		if evicted := t.slow[0]; slowLess(evicted, r) {
			t.slow[0] = r
			heap.Fix(&t.slow, 0)
			t.recycle(evicted)
			return
		}
	}
	t.recycle(r)
}

func (t *FlowTracer) rec(id int) *FlowRecord {
	if id < 0 || id >= len(t.active) {
		return nil
	}
	return t.active[id]
}

func (t *FlowTracer) recycle(r *FlowRecord) {
	r.Segs = r.Segs[:0]
	r.LostLinks = r.LostLinks[:0]
	r.LostSecs = r.LostSecs[:0]
	r.links = r.links[:0]
	t.free = append(t.free, r)
}

// sampleKeep is the deterministic hash sample: splitmix64 of the flow's
// admission ordinal against the rate, so the same flows are kept run
// over run — and whether or not the engine recycled ids under them (a
// hash of the engine id would keep only the few slots that recur).
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

// slowLess orders records by (slowdown, seq) ascending — the heap
// minimum is the least-slow reservoir entry, evicted first. The tie
// breaks on Seq alone: the engine id depends on when the driver
// released finished flows, the admission ordinal does not.
func slowLess(a, b *FlowRecord) bool {
	sa, sb := a.Slowdown(), b.Slowdown()
	if sa != sb {
		return sa < sb
	}
	return a.Seq < b.Seq
}

// slowHeap is the slowest-K reservoir as a container/heap min-heap on
// slowLess: the root is the least-slow entry, the next one evicted.
type slowHeap []*FlowRecord

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return slowLess(h[i], h[j]) }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(*FlowRecord)) }
func (h *slowHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}

// Records returns the kept completed records (hash sample ∪ slowest-K
// reservoir) sorted by slowdown descending; the returned slice is the
// caller's. Hash-sampled records are immutable after completion and
// are shared. A reservoir record is not — a slower completion evicts
// it and its storage is recycled for the next admission — so those are
// copied before the lock is dropped, and a reader on another goroutine
// never sees a record being rewritten.
func (t *FlowTracer) Records() []*FlowRecord {
	t.mu.Lock()
	out := make([]*FlowRecord, 0, len(t.kept)+len(t.slow))
	out = append(out, t.kept...)
	for _, r := range t.slow {
		c := *r
		c.Segs = append([]FlowSeg(nil), r.Segs...)
		c.LostLinks = append([]int32(nil), r.LostLinks...)
		c.LostSecs = append([]float64(nil), r.LostSecs...)
		c.links = nil
		out = append(out, &c)
	}
	t.mu.Unlock()
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
	t.mu.Lock()
	defer t.mu.Unlock()
	return FlowTraceSummary{
		Schema:     SchemaVersion,
		Tracked:    t.tracked,
		Active:     t.nActive,
		Completed:  t.completed,
		Kept:       len(t.kept),
		Reservoir:  len(t.slow),
		Dropped:    t.dropped,
		SampleRate: t.cfg.SampleRate,
		SlowestK:   t.cfg.SlowestK,
	}
}

// LinkLoss is one link's share of lost service: of one flow's (a
// FlowLine's Lost list), or aggregated over a tail of flows.
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

// lines returns the kept completed records as flow lines, slowest
// first.
func (t *FlowTracer) lines() []FlowLine {
	recs := t.Records()
	out := make([]FlowLine, len(recs))
	for i, r := range recs {
		out[i] = t.flowLine(r)
	}
	return out
}

// SlowdownAttribution is FlowTrace.TailAttribution over the kept
// completed records — e.g. 0.01 attributes the p99 tail. The slowest-K
// reservoir guarantees the true global tail is present while the cut
// stays within K flows.
func (t *FlowTracer) SlowdownAttribution(frac float64) ([]LinkLoss, int) {
	return (&FlowTrace{Flows: t.lines()}).TailAttribution(frac)
}

// FlowLine is the JSONL "flow" line (and /flows entry).
type FlowLine struct {
	Type string `json:"type"`
	ID   int    `json:"id"`
	// Seq names the flow: ID is the engine slot it occupied, shared
	// with that slot's other tenants (see FlowRecord.Seq).
	Seq       uint64     `json:"seq"`
	SizeBytes int64      `json:"size_bytes"`
	Arrive    float64    `json:"arrive"`
	Finish    float64    `json:"finish,omitempty"`
	Finished  bool       `json:"finished"`
	FCT       float64    `json:"fct,omitempty"`
	IdealFCT  float64    `json:"ideal_fct"`
	Slowdown  float64    `json:"slowdown,omitempty"`
	Sampled   bool       `json:"sampled"`
	Truncated int        `json:"truncated_segs,omitempty"`
	Lost      []LinkLoss `json:"lost,omitempty"`
	Segs      []LineSeg  `json:"segs"`
}

// LineSeg is one constant-rate segment of a FlowLine.
type LineSeg struct {
	T     float64 `json:"t"`
	Rate  float64 `json:"rate"`
	Bneck int32   `json:"bneck"`
	Name  string  `json:"bneck_name,omitempty"`
	Cause string  `json:"cause"`
	Comp  int32   `json:"comp"`
	Batch uint32  `json:"batch"`
}

func (t *FlowTracer) flowLine(r *FlowRecord) FlowLine {
	j := FlowLine{
		Type:      "flow",
		ID:        r.ID,
		Seq:       r.Seq,
		SizeBytes: r.SizeBytes,
		Arrive:    r.Arrive,
		Finished:  r.Finished,
		IdealFCT:  r.IdealFCT(),
		Sampled:   r.Sampled,
		Truncated: r.Truncated,
		Segs:      make([]LineSeg, len(r.Segs)),
	}
	if r.Finished {
		j.Finish = r.Finish
		j.FCT = r.FCT()
		j.Slowdown = r.Slowdown()
	}
	total := r.TotalLost()
	for i, l := range r.LostLinks {
		ll := LinkLoss{Link: int(l), LostSeconds: r.LostSecs[i], Name: t.linkName(int(l))}
		if total > 0 {
			ll.Share = r.LostSecs[i] / total
		}
		j.Lost = append(j.Lost, ll)
	}
	for i, s := range r.Segs {
		j.Segs[i] = LineSeg{T: s.T, Rate: s.Rate, Bneck: s.Bneck,
			Name:  t.linkName(int(s.Bneck)),
			Cause: causeName(s.Cause), Comp: s.Comp, Batch: s.Batch}
	}
	return j
}

// trace snapshots the tracer as the FlowTrace its JSONL export
// encodes: kept records by slowdown descending, the flows still active,
// per-link statistics.
func (t *FlowTracer) trace() *FlowTrace {
	ft := &FlowTrace{Summary: t.Summary(), Flows: t.lines()}
	// Unfinished flows and link stats, snapshotted under the lock
	// (both still mutable while the engine runs).
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.active {
		if r != nil {
			ft.Flows = append(ft.Flows, t.flowLine(r))
		}
	}
	for _, ls := range t.links.Snapshot() {
		ft.Links = append(ft.Links, LinkLine{Type: "link", Name: t.linkName(ls.Link), LinkSnapshot: ls})
	}
	return ft
}

// WriteJSONL writes the trace as JSON lines (FlowTrace.WriteJSONL).
func (t *FlowTracer) WriteJSONL(w io.Writer) error { return t.trace().WriteJSONL(w) }

// LinksSnapshot returns the per-link statistics under the tracer's
// lock — the safe accessor for the /links endpoint while a run is
// live. Labels are attached when a LinkName namer is configured.
func (t *FlowTracer) LinksSnapshot() []LinkSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.links.Snapshot()
}

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
	Flows []FlowLine
	Links []LinkLine
}

// WriteJSONL writes the trace as JSON lines: one {"type":"summary"}
// header carrying the schema version, the flow lines, then the
// per-link {"type":"link"} statistics.
func (ft *FlowTrace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Type string `json:"type"`
		FlowTraceSummary
	}{"summary", ft.Summary}); err != nil {
		return err
	}
	for i := range ft.Flows {
		if err := enc.Encode(&ft.Flows[i]); err != nil {
			return err
		}
	}
	for i := range ft.Links {
		if err := enc.Encode(&ft.Links[i]); err != nil {
			return err
		}
	}
	return nil
}

// Finished returns the trace's finished flows, slowest first (by
// slowdown, then seq).
func (ft *FlowTrace) Finished() []FlowLine {
	var fin []FlowLine
	for _, fl := range ft.Flows {
		if fl.Finished {
			fin = append(fin, fl)
		}
	}
	sort.SliceStable(fin, func(i, j int) bool {
		a, b := &fin[i], &fin[j]
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
	var (
		ft      FlowTrace
		summary bool
	)
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
			var fl FlowLine
			err = json.Unmarshal(rec, &fl)
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
	TailFrac    float64    `json:"tail_frac"`
	TailFlows   int        `json:"tail_flows"`
	Attribution []LinkLoss `json:"attribution"`
	Flows       []FlowLine `json:"flows"`
}

// FlowsSnapshotTop builds the /flows payload with the slowest topN
// kept flows and a tail attribution over the slowest frac.
func (t *FlowTracer) FlowsSnapshotTop(topN int, frac float64) FlowsSnapshot {
	s := FlowsSnapshot{FlowTraceSummary: t.Summary(), TailFrac: frac, Flows: t.lines()}
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
