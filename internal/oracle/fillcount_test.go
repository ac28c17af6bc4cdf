package oracle

import (
	"fmt"
	"math"
	"strings"
)

// FillBucket tallies the prepared max-min's work in one width bucket
// (flows per problem): per Prepare, the links the paths touch and the
// classes they form; per Fill, the filling rounds and the links the
// rounds' bottleneck scans visit over the representatives (what Fill
// scans) and over every touched link (what it scanned before classes).
type FillBucket struct {
	Prepares, Touched, Reps            int64
	Fills, Rounds, Scanned, ScannedAll int64
}

// FillCounts is FillBucket by width: ≤ 2, ≤ 8, ≤ 64 and > 64 flows.
type FillCounts [4]FillBucket

var fillWidths = [4]string{"le2", "le8", "le64", "gt64"}

func widthBucket(nf int) int {
	switch {
	case nf <= 2:
		return 0
	case nf <= 8:
		return 1
	case nf <= 64:
		return 2
	}
	return 3
}

func (c *FillCounts) String() string {
	var b strings.Builder
	for i, k := range c {
		if k.Prepares == 0 {
			continue
		}
		p, f := float64(k.Prepares), float64(k.Fills)
		fmt.Fprintf(&b, "%-4s prepares %7d  links/prepare %5.2f touched %5.2f reps  fills %8d  rounds/fill %5.2f  links/round %5.2f all %5.2f reps\n",
			fillWidths[i], k.Prepares, float64(k.Touched)/p, float64(k.Reps)/p,
			k.Fills, float64(k.Rounds)/f, float64(k.ScannedAll)/float64(k.Rounds), float64(k.Scanned)/float64(k.Rounds))
	}
	return b.String()
}

// CountFills runs play with every Fill replayed twice by countedFill —
// over the representatives and restricted paths Fill used, and over
// every touched link and the full paths (rebuilt from the adjacency) —
// and tallies both. Each replay must return Fill's rates bit for bit;
// the first that does not is returned as an error.
func CountFills(play func()) (c FillCounts, err error) {
	var last *MaxMinWorkspace
	round := 0
	var full [][]int
	var cf countedFill
	fillProbe = func(ws *MaxMinWorkspace, weight, x []float64) {
		b := &c[widthBucket(len(x))]
		if ws != last || ws.round != round {
			last, round = ws, ws.round
			b.Prepares++
			b.Touched += int64(len(ws.used))
			b.Reps += int64(len(ws.reps))
			full = fullPaths(ws, len(x), full)
		}
		b.Fills++
		got, rounds, scanned := cf.fill(ws.capacity, ws.reps, ws.rpaths, weight)
		if err == nil && !bitsEqual(got, x) {
			err = fmt.Errorf("fill %d: replayed over the representatives %v, Fill %v", b.Fills, got, x)
		}
		got, _, scannedAll := cf.fill(ws.capacity, ws.used, full, weight)
		if err == nil && !bitsEqual(got, x) {
			err = fmt.Errorf("fill %d: replayed over every touched link %v, Fill %v", b.Fills, got, x)
		}
		b.Rounds += int64(rounds)
		b.Scanned += int64(scanned)
		b.ScannedAll += int64(scannedAll)
	}
	defer func() { fillProbe = nil }()
	play()
	return c, err
}

// fullPaths rebuilds each prepared flow's path, in link-slot order, from
// the adjacency: the same links with the same multiplicity, which is
// all the fill's arithmetic depends on.
func fullPaths(ws *MaxMinWorkspace, nf int, buf [][]int) [][]int {
	for len(buf) < nf {
		buf = append(buf, nil)
	}
	paths := buf[:nf]
	for i := range paths {
		paths[i] = paths[i][:0]
	}
	for s, l := range ws.used {
		for _, i := range ws.linkFlows[ws.start[s]:ws.start[s+1]] {
			paths[i] = append(paths[i], l)
		}
	}
	return paths
}

// countedFill is progressive filling written plainly — no adjacency:
// a round freezes the unfrozen flows whose path crosses the bottleneck,
// in flow order — over the links and paths it is given, counting rounds
// and the links the bottleneck scans visit (each round's scan list,
// pruned of drained links as the fill prunes it).
type countedFill struct {
	rem, weight, x []float64
	count          []int
	frozen         []bool
	scan           []int
}

func (c *countedFill) fill(capacity []float64, links []int, paths [][]int, weight []float64) (x []float64, rounds, scanned int) {
	nl, nf := len(capacity), len(paths)
	if len(c.rem) < nl {
		c.rem, c.weight, c.count = make([]float64, nl), make([]float64, nl), make([]int, nl)
	}
	c.x, c.frozen = append(c.x[:0], make([]float64, nf)...), append(c.frozen[:0], make([]bool, nf)...)
	for _, l := range links {
		c.rem[l], c.weight[l], c.count[l] = capacity[l], 0, 0
	}
	eff := func(i int) float64 {
		if weight[i] <= 0 {
			return 1e-12
		}
		return weight[i]
	}
	for i, p := range paths {
		for _, l := range p {
			c.weight[l] += eff(i)
			c.count[l]++
		}
	}
	scan := append(c.scan[:0], links...)
	for remaining := nf; remaining > 0; {
		rounds++
		scanned += len(scan)
		best, bestShare := -1, math.Inf(1)
		live := scan[:0]
		for _, l := range scan {
			if c.count[l] == 0 {
				continue
			}
			live = append(live, l)
			if share := c.rem[l] / c.weight[l]; share < bestShare {
				best, bestShare = l, share
			}
		}
		scan = live
		if best == -1 {
			break
		}
		if bestShare < 0 {
			bestShare = 0 // not max(): −0 stays −0, as in the fill
		}
		for i, p := range paths {
			if c.frozen[i] || !crosses(p, best) {
				continue
			}
			c.x[i], c.frozen[i] = eff(i)*bestShare, true
			remaining--
			for _, l := range p {
				if c.rem[l] -= c.x[i]; c.rem[l] < 0 {
					c.rem[l] = 0
				}
				c.weight[l] -= eff(i)
				c.count[l]--
			}
		}
	}
	c.scan = scan
	return c.x, rounds, scanned
}

func crosses(path []int, l int) bool {
	for _, k := range path {
		if k == l {
			return true
		}
	}
	return false
}
