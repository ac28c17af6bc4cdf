// Package oracle computes reference allocations against which the
// packet-level schemes are judged, mirroring the paper's "Oracle", "a
// numerical fluid model simulation that takes the current network
// state ... and outputs the optimal rate allocation according to the
// NUM problem" (§6).
//
// It provides:
//   - exact network-wide weighted max-min via progressive filling
//     (the allocation Swift realizes for fixed weights, Eq. 8);
//   - a fluid xWI iteration that solves general NUM problems (the
//     paper proves the NUM optimum is its unique fixed point);
//   - a fluid DGD (dual gradient descent) solver used as an
//     independent cross-check and iteration-count baseline;
//   - BwE bandwidth-function water-filling (§2, Figure 2).
package oracle

import (
	"math"
	"slices"
)

// WeightedMaxMin computes the network-wide weighted max-min fair
// allocation by progressive filling: repeatedly find the most
// constrained link (smallest remaining capacity per unit of unfrozen
// weight), freeze every unfrozen flow crossing it at weight × share,
// and continue on the residual capacities.
//
// capacity[l] is link l's capacity; paths[i] lists the links flow i
// crosses; weight[i] > 0. The returned slice has one rate per flow.
func WeightedMaxMin(capacity []float64, paths [][]int, weight []float64) []float64 {
	var ws MaxMinWorkspace
	return ws.WeightedMaxMin(capacity, paths, weight, nil)
}

// MaxMinWorkspace holds the scratch buffers of weighted max-min
// solves so repeated solves (the fluid engine runs one per epoch, the
// leap engine one per event) reuse memory instead of reallocating.
// Apart from one-time buffer growth, a solve touches only the links
// the flows actually cross — O(path entries + touched links), not
// O(all links) — which is what keeps small active sets cheap on big
// networks (a sparse workload on a fat-tree crosses a few dozen of
// the hundreds of links).
//
// It offers two entries. WeightedMaxMin is the one-shot solve: link
// discovery, weight accumulation and progressive filling in one fused
// pass. Prepare + Fill split the same solve for callers that re-solve
// one flow set under changing weights (the xWI iteration, Eq. 7 → Eq.
// 8 → Eqs. 9–11): Prepare does everything that depends only on the
// paths — touched links in first-touch order, per-link flow counts,
// the link → flow adjacency — once, and each Fill pays only for what
// the weights change. Both perform the same floating-point operations
// in the same order on every link Fill keeps: bit-identical rates.
//
// Prepare also groups the touched links into classes: the same
// capacity bits and the same crossing-flow list (say, one flow's
// private hops). Members start from equal residual, weight sum and
// count and take the same subtractions in the same order, so they stay
// bit-equal; the scan's strict < keeps the first of equal shares, and
// the first-touched member (the representative) comes first. So Fill
// works on representatives alone, and no round's bottleneck changes.
//
// The zero value is ready to use; a workspace must not be used
// concurrently.
type MaxMinWorkspace struct {
	frozen       []bool
	rem          []float64
	activeWeight []float64
	activeCount  []int
	// start/linkFlows are the CSR adjacency link → crossing flows,
	// indexed by the dense slot of each touched link: filling rounds
	// then cost O(touched links), not O(all links).
	start     []int
	fill      []int
	linkFlows []int32
	// used lists the touched links in first-touch order. The one-shot
	// solve prunes it in place as links drain; Fill prunes the copy in
	// scan so the prepared order survives for the next Fill.
	used []int
	scan []int
	// reps: the representatives in first-touch order; rpaths: each path
	// restricted to them (views into rbuf); class[s]: slot s's
	// representative's slot; head (per flow) and next (per slot) chain
	// the representatives by the first flow of their list.
	reps, rbuf, class, head, next []int
	rpaths                        [][]int
	// stamp[l] == round marks link l as touched by the current
	// problem; slot[l] is its dense index into start. Stamping avoids
	// the O(all links) zeroing a fresh marker array would need.
	stamp []int
	slot  []int32
	round int

	// The capacities Prepare saw, read by Fill.
	capacity []float64
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growLinks sizes the link-indexed buffers for an nl-link network and
// opens a new stamp round. Only touched links' entries are ever
// written, so nothing network-wide needs zeroing.
func (ws *MaxMinWorkspace) growLinks(nl int) {
	ws.rem = growF(ws.rem, nl)
	ws.activeWeight = growF(ws.activeWeight, nl)
	ws.activeCount = growI(ws.activeCount, nl)
	if cap(ws.stamp) < nl {
		ws.stamp = make([]int, nl)
		ws.slot = make([]int32, nl)
	}
	ws.stamp, ws.slot = ws.stamp[:nl], ws.slot[:nl]
	ws.round++
}

// buildAdjacency fills the CSR link → flow adjacency for the touched
// links in ws.used, whose per-link flow counts are in activeCount;
// entries is the total path length.
func (ws *MaxMinWorkspace) buildAdjacency(paths [][]int, entries int) {
	used, activeCount, slot := ws.used, ws.activeCount, ws.slot
	nu := len(used)
	ws.start = growI(ws.start, nu+1)
	ws.fill = growI(ws.fill, nu)
	start, fill := ws.start, ws.fill
	start[0] = 0
	for s, l := range used {
		start[s+1] = start[s] + activeCount[l]
		fill[s] = 0
	}
	if cap(ws.linkFlows) < entries {
		ws.linkFlows = make([]int32, entries)
	}
	linkFlows := ws.linkFlows[:entries]
	for i, p := range paths {
		for _, l := range p {
			s := slot[l]
			linkFlows[start[s]+fill[s]] = int32(i)
			fill[s]++
		}
	}
}

// progressiveFill runs the filling rounds over the touched links in
// used (pruned in place as links drain), given rem, activeWeight and
// activeCount initialized for every one of them, and writes each
// flow's rate into x.
func (ws *MaxMinWorkspace) progressiveFill(used []int, paths [][]int, weight, x []float64) {
	nf := len(paths)
	if cap(ws.frozen) < nf {
		ws.frozen = make([]bool, nf)
	}
	frozen := ws.frozen[:nf]
	for i := range frozen {
		frozen[i] = false
		x[i] = 0
	}
	rem, activeWeight, activeCount := ws.rem, ws.activeWeight, ws.activeCount
	start, slot, linkFlows := ws.start, ws.slot, ws.linkFlows
	remaining := nf
	for remaining > 0 {
		// Find the bottleneck link: minimal fair share
		// rem/activeWeight — among links that still carry unfrozen
		// flows, pruning the rest from the scan list as they drain.
		best, bestShare := -1, math.Inf(1)
		w := 0
		for _, l := range used {
			if activeCount[l] == 0 {
				continue
			}
			used[w] = l
			w++
			share := rem[l] / activeWeight[l]
			if share < bestShare {
				best, bestShare = l, share
			}
		}
		used = used[:w]
		if best == -1 {
			// Flows remain but no link constrains them: can only
			// happen with inconsistent input; stop rather than loop.
			break
		}
		if bestShare < 0 {
			bestShare = 0
		}
		// Freeze all unfrozen flows through the bottleneck.
		bs := slot[best]
		for _, fi := range linkFlows[start[bs]:start[bs+1]] {
			i := int(fi)
			if frozen[i] {
				continue
			}
			w := weight[i]
			if w <= 0 {
				w = 1e-12
			}
			x[i] = w * bestShare
			frozen[i] = true
			remaining--
			for _, l := range paths[i] {
				rem[l] -= x[i]
				activeWeight[l] -= w
				activeCount[l]--
				// Guard against negative residuals from float error.
				if rem[l] < 0 {
					rem[l] = 0
				}
			}
		}
	}
}

// WeightedMaxMin is WeightedMaxMin reusing the workspace's buffers:
// the one-shot solve. The result is written into x when cap(x)
// suffices (a fresh slice is allocated otherwise) and returned. It
// overwrites any preparation the workspace held: Prepare again before
// the next Fill.
func (ws *MaxMinWorkspace) WeightedMaxMin(capacity []float64, paths [][]int, weight []float64, x []float64) []float64 {
	x = growF(x, len(paths))
	// Discover the touched links in first-touch order and initialize
	// their residuals/weights on first sight; untouched links are
	// never read.
	ws.growLinks(len(capacity))
	rem, activeWeight, activeCount := ws.rem, ws.activeWeight, ws.activeCount
	stamp, slot, round := ws.stamp, ws.slot, ws.round
	used := ws.used[:0]
	entries := 0
	for i, p := range paths {
		w := weight[i]
		if w <= 0 {
			w = 1e-12
		}
		for _, l := range p {
			if stamp[l] != round {
				stamp[l] = round
				slot[l] = int32(len(used))
				used = append(used, l)
				rem[l] = capacity[l]
				activeWeight[l], activeCount[l] = 0, 0
			}
			activeWeight[l] += w
			activeCount[l]++
		}
		entries += len(p)
	}
	ws.used = used
	ws.buildAdjacency(paths, entries)
	ws.progressiveFill(used, paths, weight, x)
	return x
}

// Prepare readies the workspace for any number of Fill calls on one
// problem: it discovers the links the paths touch, counts the flows on
// each, builds the link → flow adjacency and groups the links into
// classes. capacity is retained (not copied) and must stay unchanged
// until the last Fill; the paths are not retained.
func (ws *MaxMinWorkspace) Prepare(capacity []float64, paths [][]int) {
	ws.capacity = capacity
	ws.growLinks(len(capacity))
	activeCount := ws.activeCount
	stamp, slot, round := ws.stamp, ws.slot, ws.round
	used := ws.used[:0]
	entries := 0
	for _, p := range paths {
		for _, l := range p {
			if stamp[l] != round {
				stamp[l] = round
				slot[l] = int32(len(used))
				used = append(used, l)
				activeCount[l] = 0
			}
			activeCount[l]++
		}
		entries += len(p)
	}
	ws.used = used
	ws.buildAdjacency(paths, entries)
	ws.classify(capacity, paths, entries)
}

// classify groups the touched links into classes, comparing lists in
// full among the links whose list starts with the same flow, and
// restricts every path to the representatives, in path order.
func (ws *MaxMinWorkspace) classify(capacity []float64, paths [][]int, entries int) {
	used, start, slot, linkFlows := ws.used, ws.start, ws.slot, ws.linkFlows
	ws.head = growI(ws.head, len(paths))
	ws.class = growI(ws.class, len(used))
	ws.next = growI(ws.next, len(used))
	head, class, next := ws.head, ws.class, ws.next
	for i := range head {
		head[i] = -1
	}
	reps := ws.reps[:0]
	for s, l := range used {
		flows := linkFlows[start[s]:start[s+1]]
		r := head[flows[0]]
		for r >= 0 && (math.Float64bits(capacity[used[r]]) != math.Float64bits(capacity[l]) ||
			!slices.Equal(linkFlows[start[r]:start[r+1]], flows)) {
			r = next[r]
		}
		if r < 0 {
			r = s
			next[s], head[flows[0]] = head[flows[0]], s
			reps = append(reps, l)
		}
		class[s] = r
	}
	ws.reps = reps
	ws.rbuf = growI(ws.rbuf, entries) // never outgrown below: views stay valid
	rbuf, rpaths := ws.rbuf[:0], ws.rpaths[:0]
	for _, p := range paths {
		from := len(rbuf)
		for _, l := range p {
			if s := int(slot[l]); class[s] == s {
				rbuf = append(rbuf, l)
			}
		}
		rpaths = append(rpaths, rbuf[from:])
	}
	ws.rpaths = rpaths
}

// Links returns the links the prepared paths touch, in first-touch
// order. The slice is the workspace's own: read-only, valid until the
// next Prepare or one-shot solve.
func (ws *MaxMinWorkspace) Links() []int { return ws.used }

// Touches reports whether any prepared path crosses link l.
func (ws *MaxMinWorkspace) Touches(l int) bool { return ws.stamp[l] == ws.round }

// Fill solves the prepared problem for the given weights: exactly the
// rates WeightedMaxMin(capacity, paths, weight) returns, bit for bit,
// at the cost of the weight-dependent work alone, over one link per
// class. x is used as in WeightedMaxMin.
func (ws *MaxMinWorkspace) Fill(weight []float64, x []float64) []float64 {
	capacity, rpaths := ws.capacity, ws.rpaths
	x = growF(x, len(rpaths))
	rem, activeWeight, activeCount := ws.rem, ws.activeWeight, ws.activeCount
	start, slot := ws.start, ws.slot
	for _, l := range ws.reps {
		s := slot[l]
		rem[l] = capacity[l]
		activeWeight[l] = 0
		activeCount[l] = start[s+1] - start[s]
	}
	// Same flow-then-path order as the one-shot pass, so every link's
	// weight sum rounds identically.
	for i, p := range rpaths {
		w := weight[i]
		if w <= 0 {
			w = 1e-12
		}
		for _, l := range p {
			activeWeight[l] += w
		}
	}
	ws.scan = append(ws.scan[:0], ws.reps...)
	ws.progressiveFill(ws.scan, rpaths, weight, x)
	if fillProbe != nil {
		fillProbe(ws, weight, x)
	}
	return x
}

// fillProbe, set only by tests, sees every Fill: the seam the fill's
// round and scan counts are taken through, so no counter rides in it.
var fillProbe func(ws *MaxMinWorkspace, weight, x []float64)

// MaxMin computes the unweighted max-min fair allocation.
func MaxMin(capacity []float64, paths [][]int) []float64 {
	w := make([]float64, len(paths))
	for i := range w {
		w[i] = 1
	}
	return WeightedMaxMin(capacity, paths, w)
}

// BottleneckOf returns, for each flow, the index of its bottleneck
// link under allocation x: the link on its path with the smallest
// slack capacity per remaining demand. Used by tests to verify the
// max-min property (every flow is bottlenecked somewhere).
func BottleneckOf(capacity []float64, paths [][]int, x []float64) []int {
	load := make([]float64, len(capacity))
	for i, p := range paths {
		for _, l := range p {
			load[l] += x[i]
		}
	}
	out := make([]int, len(paths))
	for i, p := range paths {
		best, bestSlack := -1, math.Inf(1)
		for _, l := range p {
			slack := capacity[l] - load[l]
			if slack < bestSlack {
				best, bestSlack = l, slack
			}
		}
		out[i] = best
	}
	return out
}
