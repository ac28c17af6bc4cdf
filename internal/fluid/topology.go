package fluid

import (
	"fmt"
	"sync"
)

// FatTree is a k-ary fat-tree (Al-Fares et al.): k pods of k/2 edge
// and k/2 aggregation switches, (k/2)² core switches, and k³/4 hosts,
// with full bisection bandwidth at a uniform link rate. It exists only
// in fluid form — the packet path's leaf-spine cannot reach this
// scale — and exposes routes as directed-link index paths for the
// fluid engine.
type FatTree struct {
	K    int
	Rate float64 // bits/second, every link
	Net  *Network

	// Directed-link IDs. half = k/2; hosts are numbered
	// pod·half² + edge·half + i.
	hostUp   []int     // host → edge
	hostDown []int     // edge → host
	edgeUp   [][][]int // [pod][edge][agg]: edge → agg
	edgeDown [][][]int // [pod][agg][edge]: agg → edge
	aggUp    [][][]int // [pod][agg][ci]:  agg → core a·half+ci
	aggDown  [][][]int // [pod][agg][ci]:  core a·half+ci → agg

	nameOnce sync.Once
	names    []string // lazily built link-id → label table
}

// NewFatTree builds a k-ary fat-tree (k even, k ≥ 2) with every link
// at rate bits/second.
func NewFatTree(k int, rate float64) *FatTree {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("fluid: fat-tree k must be even and ≥ 2, got %d", k))
	}
	half := k / 2
	t := &FatTree{K: k, Rate: rate}
	var capacity []float64
	link := func() int {
		capacity = append(capacity, rate)
		return len(capacity) - 1
	}

	hosts := k * half * half
	t.hostUp = make([]int, hosts)
	t.hostDown = make([]int, hosts)
	t.edgeUp = make([][][]int, k)
	t.edgeDown = make([][][]int, k)
	t.aggUp = make([][][]int, k)
	t.aggDown = make([][][]int, k)
	for p := 0; p < k; p++ {
		t.edgeUp[p] = make([][]int, half)
		t.edgeDown[p] = make([][]int, half)
		t.aggUp[p] = make([][]int, half)
		t.aggDown[p] = make([][]int, half)
		for e := 0; e < half; e++ {
			for i := 0; i < half; i++ {
				h := p*half*half + e*half + i
				t.hostUp[h] = link()
				t.hostDown[h] = link()
			}
			t.edgeUp[p][e] = make([]int, half)
			for a := 0; a < half; a++ {
				t.edgeUp[p][e][a] = link()
			}
		}
		for a := 0; a < half; a++ {
			t.edgeDown[p][a] = make([]int, half)
			for e := 0; e < half; e++ {
				t.edgeDown[p][a][e] = link()
			}
			// Aggregation switch a connects to cores a·half … a·half+half−1.
			t.aggUp[p][a] = make([]int, half)
			t.aggDown[p][a] = make([]int, half)
			for c := 0; c < half; c++ {
				t.aggUp[p][a][c] = link()
				t.aggDown[p][a][c] = link()
			}
		}
	}
	t.Net = NewNetwork(capacity)
	return t
}

// Hosts returns the host count k³/4.
func (t *FatTree) Hosts() int { return t.K * t.K * t.K / 4 }

func (t *FatTree) locate(h int) (pod, edge int) {
	half := t.K / 2
	return h / (half * half), (h / half) % half
}

// Route returns the directed-link path from host src to host dst.
// pathChoice selects among the equal-cost paths (agg and core picks),
// like the spine argument of the leaf-spine topology; any non-negative
// value is valid.
func (t *FatTree) Route(src, dst, pathChoice int) []int {
	if src == dst {
		panic("fluid: fat-tree flow to self")
	}
	half := t.K / 2
	sp, se := t.locate(src)
	dp, de := t.locate(dst)
	if sp == dp && se == de {
		return []int{t.hostUp[src], t.hostDown[dst]}
	}
	a := pathChoice % half
	if a < 0 {
		a = -a
	}
	if sp == dp {
		return []int{
			t.hostUp[src],
			t.edgeUp[sp][se][a],
			t.edgeDown[sp][a][de],
			t.hostDown[dst],
		}
	}
	c := (pathChoice / half) % half
	if c < 0 {
		c = -c
	}
	return []int{
		t.hostUp[src],
		t.edgeUp[sp][se][a],
		t.aggUp[sp][a][c],
		t.aggDown[dp][a][c],
		t.edgeDown[dp][a][de],
		t.hostDown[dst],
	}
}

// LinkName returns a human-readable label for a directed-link id —
// "host[5]↑", "edge[2.1]→agg[2.0]", "agg[1.3]→core[13]" — for
// attribution reports and trace exports. The label table is built
// lazily on first use and is safe for concurrent readers.
func (t *FatTree) LinkName(l int) string {
	t.nameOnce.Do(t.buildNames)
	if l < 0 || l >= len(t.names) {
		return fmt.Sprintf("link %d", l)
	}
	return t.names[l]
}

// LinkLabel is LinkName plus a " (dead)" marker when the link's
// current capacity is zero — a failed link under fault injection.
// Out-of-range ids fall back to LinkName's "link N" form, unmarked.
func (t *FatTree) LinkLabel(l int) string {
	name := t.LinkName(l)
	if l >= 0 && l < t.Net.Links() && t.Net.Capacity[l] <= 0 {
		return name + " (dead)"
	}
	return name
}

func (t *FatTree) buildNames() {
	half := t.K / 2
	t.names = make([]string, t.Net.Links())
	for h := range t.hostUp {
		t.names[t.hostUp[h]] = fmt.Sprintf("host[%d]↑", h)
		t.names[t.hostDown[h]] = fmt.Sprintf("host[%d]↓", h)
	}
	for p := 0; p < t.K; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				t.names[t.edgeUp[p][e][a]] = fmt.Sprintf("edge[%d.%d]→agg[%d.%d]", p, e, p, a)
			}
		}
		for a := 0; a < half; a++ {
			for e := 0; e < half; e++ {
				t.names[t.edgeDown[p][a][e]] = fmt.Sprintf("agg[%d.%d]→edge[%d.%d]", p, a, p, e)
			}
			for c := 0; c < half; c++ {
				core := a*half + c
				t.names[t.aggUp[p][a][c]] = fmt.Sprintf("agg[%d.%d]→core[%d]", p, a, core)
				t.names[t.aggDown[p][a][c]] = fmt.Sprintf("core[%d]→agg[%d.%d]", core, p, a)
			}
		}
	}
}

// HostLinks returns host h's two directed links (up, down) — the set
// a host NIC failure takes down.
func (t *FatTree) HostLinks(h int) []int {
	if h < 0 || h >= t.Hosts() {
		panic(fmt.Sprintf("fluid: fat-tree host %d out of range [0,%d)", h, t.Hosts()))
	}
	return []int{t.hostUp[h], t.hostDown[h]}
}

// EdgeSwitchLinks returns every directed link incident to edge switch
// (pod, e): the host links of its k/2 hosts and its up/down links to
// each aggregation switch. Failing a switch means failing exactly this
// set.
func (t *FatTree) EdgeSwitchLinks(pod, e int) []int {
	half := t.K / 2
	if pod < 0 || pod >= t.K || e < 0 || e >= half {
		panic(fmt.Sprintf("fluid: fat-tree edge switch %d.%d out of range", pod, e))
	}
	links := make([]int, 0, 4*half)
	for i := 0; i < half; i++ {
		h := pod*half*half + e*half + i
		links = append(links, t.hostUp[h], t.hostDown[h])
	}
	for a := 0; a < half; a++ {
		links = append(links, t.edgeUp[pod][e][a], t.edgeDown[pod][a][e])
	}
	return links
}

// AggSwitchLinks returns every directed link incident to aggregation
// switch (pod, a): its up/down links to each edge switch and to each
// of its k/2 cores.
func (t *FatTree) AggSwitchLinks(pod, a int) []int {
	half := t.K / 2
	if pod < 0 || pod >= t.K || a < 0 || a >= half {
		panic(fmt.Sprintf("fluid: fat-tree agg switch %d.%d out of range", pod, a))
	}
	links := make([]int, 0, 4*half)
	for e := 0; e < half; e++ {
		links = append(links, t.edgeUp[pod][e][a], t.edgeDown[pod][a][e])
	}
	for c := 0; c < half; c++ {
		links = append(links, t.aggUp[pod][a][c], t.aggDown[pod][a][c])
	}
	return links
}

// CoreSwitchLinks returns every directed link incident to core switch
// core ∈ [0, (k/2)²): its up/down links to the one aggregation switch
// it reaches in each pod (core a·half+c attaches to agg a).
func (t *FatTree) CoreSwitchLinks(core int) []int {
	half := t.K / 2
	if core < 0 || core >= half*half {
		panic(fmt.Sprintf("fluid: fat-tree core switch %d out of range [0,%d)", core, half*half))
	}
	a, c := core/half, core%half
	links := make([]int, 0, 2*t.K)
	for p := 0; p < t.K; p++ {
		links = append(links, t.aggUp[p][a][c], t.aggDown[p][a][c])
	}
	return links
}

// PathCount returns the size of the ECMP path set between hosts src
// and dst: 1 under the same edge switch, k/2 within a pod (one path
// per aggregation switch), (k/2)² across pods (one per aggregation ×
// core pick).
func (t *FatTree) PathCount(src, dst int) int {
	if src == dst {
		panic("fluid: fat-tree flow to self")
	}
	half := t.K / 2
	sp, se := t.locate(src)
	dp, de := t.locate(dst)
	switch {
	case sp == dp && se == de:
		return 1
	case sp == dp:
		return half
	default:
		return half * half
	}
}

// Routes returns the full ECMP path set between hosts src and dst, in
// deterministic choice order: Routes(src, dst)[i] equals
// Route(src, dst, i) for every i in [0, PathCount(src, dst)). The
// paths are pairwise distinct and independent of any prior calls —
// the enumeration groups can be instantiated over.
func (t *FatTree) Routes(src, dst int) [][]int {
	n := t.PathCount(src, dst)
	paths := make([][]int, n)
	for i := range paths {
		paths[i] = t.Route(src, dst, i)
	}
	return paths
}
