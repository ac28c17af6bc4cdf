package fluid

import (
	"math"
	"testing"

	"numfabric/internal/core"
)

// Fault injection zeroes link capacities in place (leap.Engine.FailLink),
// so every allocator must stay numerically sane when some — or all —
// capacities are exactly zero: no NaN/Inf anywhere, exactly-zero rates
// for flows crossing a dead link, and undisturbed sharing among the
// survivors.

// faultAllocators returns fresh instances of all four allocators with
// the configurations the engines use.
func faultAllocators() map[string]func() Allocator {
	return map[string]func() Allocator{
		"waterfill": func() Allocator { return NewWaterFill() },
		"xwi":       func() Allocator { return &XWI{IterPerEpoch: 4} },
		"dgd":       func() Allocator { return &DGD{Gamma: 0.05, IterPerEpoch: 100} },
		"oracle":    func() Allocator { return NewOracle() },
	}
}

func assertFinite(t *testing.T, name string, rates []float64) {
	t.Helper()
	for i, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("%s: flow %d rate %v (non-finite)", name, i, r)
		}
		if r < 0 {
			t.Fatalf("%s: flow %d rate %v (negative)", name, i, r)
		}
	}
}

// TestAllocatorsZeroCapacity: with link 1 dead, every allocator gives
// exactly zero to flows whose path crosses it, finite sane rates to
// everyone, and lets the survivors keep their capacity.
func TestAllocatorsZeroCapacity(t *testing.T) {
	cases := []struct {
		name     string
		capacity []float64
		paths    [][]int
		// wantZero[i] — flow i crosses a dead link and must get rate 0.
		wantZero []bool
		// minRate[i] — lower bound for healthy flow i (0 = no bound).
		minRate []float64
	}{
		{
			name:     "one-dead-link",
			capacity: []float64{10e9, 0, 10e9},
			paths:    [][]int{{1}, {0, 1}, {0}, {2}},
			wantZero: []bool{true, true, false, false},
			// With both dead-path flows stranded, the survivors own
			// their links outright.
			minRate: []float64{0, 0, 9e9, 9e9},
		},
		{
			name:     "all-dead",
			capacity: []float64{0, 0},
			paths:    [][]int{{0}, {1}, {0, 1}},
			wantZero: []bool{true, true, true},
			minRate:  []float64{0, 0, 0},
		},
		{
			name:     "dead-middle-of-path",
			capacity: []float64{10e9, 0, 10e9},
			paths:    [][]int{{0, 1, 2}, {0}, {2}},
			wantZero: []bool{true, false, false},
			minRate:  []float64{0, 9e9, 9e9},
		},
	}
	for name, mk := range faultAllocators() {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				eng := NewEngine(NewNetwork(c.capacity), Config{Epoch: 100e-6, Allocator: mk()})
				flows := make([]*Flow, len(c.paths))
				for i, p := range c.paths {
					flows[i] = eng.AddFlow(p, core.ProportionalFair(), 0, 0)
				}
				// Enough epochs for the iterative schemes to settle and
				// for any NaN to propagate into the rates if one exists.
				for ep := 0; ep < 200; ep++ {
					eng.Step()
				}
				rates := make([]float64, len(flows))
				for i, f := range flows {
					rates[i] = f.Rate
				}
				assertFinite(t, c.name, rates)
				if v := maxMinViolation(eng.net, flows, rates); name == "waterfill" && v > 1e-12 {
					t.Errorf("max-min certificate violated by %.3g", v)
				}
				for i, r := range rates {
					if c.wantZero[i] {
						if r != 0 {
							t.Errorf("flow %d crosses a dead link: rate %g want exactly 0", i, r)
						}
					} else if r < c.minRate[i] {
						t.Errorf("healthy flow %d rate %g want ≥ %g", i, r, c.minRate[i])
					}
				}
			})
		}
	}
}

// TestGroupResplitOnDeadLink: a multipath group with one member on a
// dead link sheds that member (exactly zero) and carries its aggregate
// on the surviving path, under XWI, the allocator that plays groups.
func TestGroupResplitOnDeadLink(t *testing.T) {
	t.Run("xwi", func(t *testing.T) {
		eng := NewEngine(NewNetwork([]float64{10e9, 0}), Config{Epoch: 100e-6, Allocator: &XWI{IterPerEpoch: 4}})
		g := eng.AddGroup([][]int{{0}, {1}}, core.ProportionalFair(), 0)
		for ep := 0; ep < 500; ep++ {
			eng.Step()
		}
		m0, m1 := g.Members[0].Rate, g.Members[1].Rate
		assertFinite(t, "xwi", []float64{m0, m1})
		if m1 != 0 {
			t.Errorf("member on dead link: rate %g want exactly 0", m1)
		}
		if m0 < 9e9 {
			t.Errorf("surviving member rate %g want ≥ 9G (aggregate re-split)", m0)
		}
	})
}

// TestAllocatorCapacityRecovery: zeroing a capacity in place and then
// restoring it (what FailLink/RecoverLink do) brings the stranded flow
// back to a sane warm-started allocation — the held dead-link prices
// must not poison the post-recovery solve.
func TestAllocatorCapacityRecovery(t *testing.T) {
	for name, mk := range faultAllocators() {
		t.Run(name, func(t *testing.T) {
			net := NewNetwork([]float64{10e9, 10e9})
			eng := NewEngine(net, Config{Epoch: 100e-6, Allocator: mk()})
			a := eng.AddFlow([]int{0}, core.ProportionalFair(), 0, 0)
			b := eng.AddFlow([]int{0, 1}, core.ProportionalFair(), 0, 0)
			for ep := 0; ep < 200; ep++ {
				eng.Step()
			}
			// The epoch engine has no fault path (leap's does): mark the
			// cached allocation stale, or a stationary allocator keeps it.
			net.SetCapacity(1, 0)
			eng.changed = true
			for ep := 0; ep < 200; ep++ {
				eng.Step()
			}
			if b.Rate != 0 {
				t.Fatalf("flow on failed link: rate %g want exactly 0", b.Rate)
			}
			net.SetCapacity(1, 10e9)
			eng.changed = true
			for ep := 0; ep < 500; ep++ {
				eng.Step()
			}
			assertFinite(t, name, []float64{a.Rate, b.Rate})
			// Post-recovery both flows share link 0 again: each near 5G.
			if b.Rate < 4e9 || a.Rate < 4e9 {
				t.Errorf("post-recovery rates a=%g b=%g want ≈5G each", a.Rate, b.Rate)
			}
		})
	}
}

// TestMaxCapacityCoherentUnderFaults: the maximum the network maintains
// for XWI and DGD (weight window, step size, tolerance scale) follows
// every capacity change. On a 10G/40G leaf-spine, fail the 40G links
// one by one — the maximum drops to 10G with the last — then recover
// them, and at every step the allocator on the mutated network must
// give, bit for bit, the rates of a twin allocator run on a network
// freshly built from the same capacities (NewNetwork scans them).
func TestMaxCapacityCoherentUnderFaults(t *testing.T) {
	// 4 leaves × 2 spines: link h is host h's 10G access link (8 hosts,
	// two per leaf); link 8+2*leaf+spine is the 40G leaf-spine link.
	const hosts, leaves, spines = 8, 4, 2
	capacity := make([]float64, hosts+leaves*spines)
	for l := range capacity {
		capacity[l] = 10e9
		if l >= hosts {
			capacity[l] = 40e9
		}
	}
	fabric := func(leaf, spine int) int { return hosts + spines*leaf + spine }
	var paths [][]int
	for src := 0; src < hosts; src++ {
		for _, dst := range []int{(src + 3) % hosts, (src + 5) % hosts} {
			spine := (src + dst) % spines
			paths = append(paths, []int{src, fabric(src/2, spine), fabric(dst/2, spine), dst})
		}
	}
	allocators := map[string]func() SubsetAllocator{
		"xwi": func() SubsetAllocator { return &XWI{Eta: 5, Beta: 0.5, IterPerEpoch: 48, Tol: 1e-3} },
		"dgd": func() SubsetAllocator { return &DGD{IterPerEpoch: 200, Tol: 1e-3} },
	}
	for name, mk := range allocators {
		t.Run(name, func(t *testing.T) {
			mkFlows := func() []*Flow {
				var tbl FlowTable
				flows := make([]*Flow, len(paths))
				for i, p := range paths {
					flows[i] = tbl.Acquire(p, core.ProportionalFair(), 0, 0)
				}
				return flows
			}
			net := NewNetwork(capacity)
			got, want := mk(), mk()
			gotFlows, wantFlows := mkFlows(), mkFlows()
			gotRates, wantRates := make([]float64, len(paths)), make([]float64, len(paths))
			check := func(step string) {
				t.Helper()
				fresh := NewNetwork(net.Capacity)
				if net.MaxCapacity() != fresh.MaxCapacity() {
					t.Fatalf("%s: maintained max capacity %g, a scan finds %g", step, net.MaxCapacity(), fresh.MaxCapacity())
				}
				got.AllocateSubset(net, gotFlows, gotRates)
				want.AllocateSubset(fresh, wantFlows, wantRates)
				for i := range gotRates {
					if math.Float64bits(gotRates[i]) != math.Float64bits(wantRates[i]) {
						t.Fatalf("%s: flow %d rate %v on the mutated network, %v on a fresh one", step, i, gotRates[i], wantRates[i])
					}
				}
			}
			check("healthy")
			for l := hosts; l < len(capacity); l++ {
				net.SetCapacity(l, 0)
				check("fail")
			}
			if net.MaxCapacity() != 10e9 {
				t.Fatalf("every 40G link down: max capacity %g, want 10G", net.MaxCapacity())
			}
			for l := hosts; l < len(capacity); l++ {
				net.SetCapacity(l, 40e9)
				check("recover")
			}
		})
	}
}
