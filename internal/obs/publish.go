package obs

import "sync/atomic"

// flowsEndpointTop bounds the flows listed by /flows;
// flowsEndpointFrac is the slowest fraction its attribution covers.
const flowsEndpointTop, flowsEndpointFrac = 50, 0.01

// flowPages are the /flows body and the /links lines of one publish.
// They share no storage the engine writes later: kept records are final,
// the reservoir's are copies (Records), and the rest is built for them.
type flowPages struct {
	flows FlowsSnapshot
	links []LinkLine
}

// published holds the pages a FlowTracer published last.
type published struct{ atomic.Pointer[flowPages] }

// Publish stores the tracer's /flows body (FlowsSnapshotTop(50, 0.01))
// and labelled /links lines as the copy those endpoints serve. The
// engine calls it where Live.Due holds, before Live.Publish wakes the
// scraper, so links are labelled where capacities are written. An
// inlinable nil check.
func (t *FlowTracer) Publish() {
	if t != nil {
		t.publish()
	}
}

func (t *FlowTracer) publish() {
	t.pages.Store(&flowPages{t.FlowsSnapshotTop(flowsEndpointTop, flowsEndpointFrac), t.linkLines(t.LinkNameOrIndex)})
}

// Published asks live for a fresh publish, as a scrape of /flows or
// /links does, and returns the /flows body and /links lines the tracer
// stored last; ok is false on a nil tracer and before its first
// Publish. A nil live serves what was stored last without asking.
func (t *FlowTracer) Published(live *Live) (flows FlowsSnapshot, links []LinkLine, ok bool) {
	if t == nil {
		return FlowsSnapshot{}, nil, false
	}
	live.ask()
	if p := t.pages.Load(); p != nil {
		return p.flows, p.links, true
	}
	return FlowsSnapshot{}, nil, false
}
