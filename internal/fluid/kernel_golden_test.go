package fluid

import (
	"fmt"
	"math"
	"testing"

	"numfabric/internal/cert"
	"numfabric/internal/core"
	"numfabric/internal/oracle"
)

// bitHash is FNV-1a over 64-bit words: float bits and counts.
type bitHash uint64

func newBitHash() bitHash { return 14695981039346656037 }

func (h *bitHash) word(v uint64) {
	for range 8 {
		*h = (*h ^ bitHash(v&0xff)) * 1099511628211
		v >>= 8
	}
}

func (h *bitHash) floats(xs []float64) {
	h.word(uint64(len(xs)))
	for _, x := range xs {
		h.word(math.Float64bits(x))
	}
}

// xwiCall hashes one allocator call: the rates, every link price and
// the iterations it ran.
func (h *bitHash) xwiCall(a *XWI, call func([]*Flow, []float64), flows []*Flow) {
	rates := make([]float64, len(flows))
	before := a.SolveIters()
	call(flows, rates)
	h.floats(rates)
	h.floats(a.price)
	h.word(uint64(a.SolveIters() - before))
}

// solve hashes one oracle.Solve: rates, prices, iterations, Converged.
func (h *bitHash) solve(p *core.Problem, opts oracle.SolveOptions) oracle.Result {
	res := oracle.Solve(p, opts)
	h.floats(res.Rates)
	h.floats(res.Prices)
	h.word(uint64(res.Iterations))
	if res.Converged {
		h.word(1)
	}
	return res
}

func pathFlows(u core.Utility, paths ...[]int) []*Flow {
	flows := make([]*Flow, len(paths))
	for i, p := range paths {
		flows[i] = &Flow{ID: i, Links: p, U: u}
	}
	return flows
}

// kernelBWUtility is a bandwidth-function utility: no α-plan builds
// over it, so the solvers take their interface path.
func kernelBWUtility(scale float64) core.Utility {
	return core.NewBWUtility(core.MustBandwidthFunction([]core.BWPoint{
		{FairShare: 0, Bandwidth: 0}, {FairShare: 1, Bandwidth: 2e9 * scale}, {FairShare: 3, Bandwidth: 5e9 * scale},
	}), 5)
}

// TestXWIKernelBits pins the xWI iteration (§4.2, Eqs. 7–11) bit for bit
// in every configuration its two drivers run it: fluid.XWI (full and
// subset calls, fixed iterations and the leap engine's Tol stop, groups,
// the interface path, a failed and recovered link) and the routes of
// oracle.Solve that iterate (an opaque utility, mixed α, multipath
// groups, a MaxIter cut, a warm start with priced idle links, an
// all-dead cold start). Each row hashes every rate and price bit and
// every iteration count the row's calls produce.
func TestXWIKernelBits(t *testing.T) {
	pf := core.ProportionalFair()
	fct := func(size int64) core.Utility { return core.FCTMin(size, 0.125) }
	rows := []struct {
		name string
		run  func(t *testing.T, h *bitHash)
		want string
	}{
		{"xwi/allocate-idle-decay", func(t *testing.T, h *bitHash) {
			net := NewNetwork([]float64{10e9, 10e9, 4e9, 10e9, 1e9})
			a := &XWI{Eta: 5, Beta: 0.3, IterPerEpoch: 4}
			all := pathFlows(pf, []int{0, 1}, []int{1, 2}, []int{2, 3}, []int{4}, []int{0, 4})
			all[2].U = fct(30e3)
			h.xwiCall(a, func(f []*Flow, r []float64) { a.Allocate(net, f, r) }, all)
			// Link 4 keeps its price but loses its flows: it decays.
			for range 3 {
				h.xwiCall(a, func(f []*Flow, r []float64) { a.Allocate(net, f, r) }, all[:3])
			}
		}, "a51c0606b1b650a9"},
		{"xwi/subset-fctmin-chain", func(t *testing.T, h *bitHash) {
			const n = 16
			capacity := make([]float64, 2*n+3)
			chain := make([]*Flow, n)
			for i := range chain {
				capacity[2*i], capacity[2*i+1] = 10e9, float64(2+i%7)*1e9
				chain[i] = &Flow{ID: i, Links: []int{2 * i, 2*i + 1, 2*i + 2}, U: fct(int64(1e3 * math.Pow(1.9, float64(i))))}
			}
			capacity[2*n], capacity[2*n+1], capacity[2*n+2] = 10e9, 10e9, 10e9
			other := pathFlows(pf, []int{2*n + 1}, []int{2*n + 1, 2*n + 2})
			net := NewNetwork(capacity)
			// harness.LeapAllocatorFor(NUMFabric)'s settings.
			a := &XWI{Eta: 5, Beta: 0.5, IterPerEpoch: 48, Tol: 1e-3}
			a.Prime(net)
			sub := func(f []*Flow, r []float64) { a.AllocateSubset(net, f, r) }
			h.xwiCall(a, sub, other)
			h.xwiCall(a, sub, chain)
			h.xwiCall(a, sub, chain[:n-1])
			h.xwiCall(a, sub, chain)
			h.xwiCall(a, sub, other[:1])
		}, "e03fa2e155823324"},
		{"xwi/epoch-groups", func(t *testing.T, h *bitHash) {
			net := NewNetwork([]float64{10e9, 10e9, 8e9, 6e9, 10e9})
			a := &XWI{IterPerEpoch: 2}
			eng := NewEngine(net, Config{Allocator: a})
			two := eng.AddGroup([][]int{{0, 2}, {1, 3}}, pf, 0)
			one := eng.AddGroup([][]int{{1, 4}}, pf, 0)
			single := eng.AddFlow([]int{0}, fct(1e12), 1e12, 0)
			var members []*Flow
			members = append(members, two.Members...)
			members = append(members, one.Members...)
			members = append(members, single)
			snap := func() {
				rates := make([]float64, len(members))
				for i, f := range members {
					rates[i] = f.Rate
				}
				h.floats(rates)
				h.floats(a.price)
				h.word(uint64(a.SolveIters()))
			}
			for range 40 {
				eng.Step()
			}
			snap()
			// A two-path group down to one member keeps its member's share.
			eng.Stop(two.Members[1])
			for range 20 {
				eng.Step()
			}
			snap()
		}, "507746f41c89aabe"},
		{"xwi/bandwidth-function", func(t *testing.T, h *bitHash) {
			net := NewNetwork([]float64{10e9, 6e9, 10e9})
			a := &XWI{IterPerEpoch: 8}
			flows := pathFlows(kernelBWUtility(1), []int{0, 1}, []int{1, 2}, []int{0})
			flows[2].U = kernelBWUtility(2)
			for range 3 {
				h.xwiCall(a, func(f []*Flow, r []float64) { a.Allocate(net, f, r) }, flows)
			}
		}, "f0b659aacba1256c"},
		{"xwi/fail-recover", func(t *testing.T, h *bitHash) {
			net := NewNetwork([]float64{10e9, 10e9, 10e9})
			a := &XWI{IterPerEpoch: 4}
			flows := pathFlows(pf, []int{0, 1}, []int{1, 2}, []int{2})
			call := func(f []*Flow, r []float64) { a.Allocate(net, f, r) }
			h.xwiCall(a, call, flows)
			net.SetCapacity(1, 0)
			h.xwiCall(a, call, flows)
			h.xwiCall(a, call, flows)
			net.SetCapacity(1, 10e9)
			h.xwiCall(a, call, flows)
			h.xwiCall(a, call, flows)
		}, "f7f72b7a7a316caf"},
		{"xwi/all-dead-cold", func(t *testing.T, h *bitHash) {
			net := NewNetwork([]float64{0, 0, 0})
			a := &XWI{IterPerEpoch: 3}
			flows := pathFlows(pf, []int{0, 1}, []int{1, 2})
			flows[1].U = fct(10e3)
			for range 2 {
				h.xwiCall(a, func(f []*Flow, r []float64) { a.Allocate(net, f, r) }, flows)
			}
		}, "004ff9548a2639ed"},
		{"oracle/opaque-utility", func(t *testing.T, h *bitHash) {
			p := core.NewProblem([]float64{10e9, 6e9, 10e9})
			p.AddFlow([]int{0, 1}, kernelBWUtility(1))
			p.AddFlow([]int{1, 2}, kernelBWUtility(1))
			p.AddFlow([]int{0}, kernelBWUtility(2))
			h.solve(p, oracle.SolveOptions{})
		}, "e70558724a5c9651"},
		{"oracle/mixed-alpha", func(t *testing.T, h *bitHash) {
			p := core.NewProblem([]float64{10e9, 4e9, 10e9, 7e9})
			p.AddFlow([]int{0, 1}, pf)
			p.AddFlow([]int{1, 2}, core.NewAlphaFair(2))
			p.AddFlow([]int{2, 3}, fct(40e3))
			p.AddFlow([]int{0, 3}, pf)
			h.solve(p, oracle.SolveOptions{})
		}, "0fc1c1247618c4f4"},
		{"oracle/contiguous-groups", func(t *testing.T, h *bitHash) {
			p := core.NewProblem([]float64{10e9, 4e9, 10e9})
			g := p.AddAggregate(pf)
			p.AddSubflow(g, []int{0})
			p.AddSubflow(g, []int{1})
			g = p.AddAggregate(pf)
			p.AddSubflow(g, []int{1, 2})
			p.AddSubflow(g, []int{0, 2})
			p.AddFlow([]int{2}, pf)
			h.solve(p, oracle.SolveOptions{})
		}, "bfc360ed4af960e1"},
		{"oracle/interleaved-groups", func(t *testing.T, h *bitHash) {
			// Link 0 carries flows 0, 1 and 2: group by group, its load
			// is summed in the order 0, 2, 1.
			p := core.NewProblem([]float64{10e9, 4e9, 10e9})
			g0, g1 := p.AddAggregate(pf), p.AddAggregate(pf)
			p.AddSubflow(g0, []int{0})
			p.AddSubflow(g1, []int{0, 2})
			p.AddSubflow(g0, []int{0, 1})
			p.AddSubflow(g1, []int{1, 2})
			p.AddFlow([]int{2}, pf)
			res := h.solve(p, oracle.SolveOptions{})
			// The certificate that holds when the load order moves bits: the
			// §6.3 share floor keeps each group's minor path probing, 3.4 %
			// short of the pooled optimum by the duality gap.
			if feas, gap := cert.Feasibility(p, res.Rates), cert.Gap(p, res.Rates, res.Prices); feas > 0 || gap > 0.034 {
				t.Errorf("feasibility %.3g (want 0), duality gap %.3g (want ≤ 0.034)", feas, gap)
			}
		}, "0bd87d699b4718e1"},
		{"oracle/maxiter-cut", func(t *testing.T, h *bitHash) {
			p := core.NewProblem([]float64{10e9, 4e9, 10e9, 7e9})
			p.AddFlow([]int{0, 1}, pf)
			p.AddFlow([]int{1, 2}, core.NewAlphaFair(2))
			p.AddFlow([]int{2, 3}, fct(40e3))
			if res := h.solve(p, oracle.SolveOptions{MaxIter: 7}); res.Converged {
				t.Errorf("a 7-iteration cut converged")
			}
		}, "8e3e57f9f3e0aa7f"},
		{"oracle/warm-idle-links", func(t *testing.T, h *bitHash) {
			p := core.NewProblem([]float64{10e9, 4e9, 10e9, 7e9, 3e9})
			p.AddFlow([]int{0, 1}, pf)
			p.AddFlow([]int{1, 2}, core.NewAlphaFair(2))
			// Links 3 and 4 carry no flow but a price from an earlier solve.
			res := h.solve(p, oracle.SolveOptions{Beta: 0.7, InitPrices: []float64{2e-10, 3e-10, 1e-10, 5e-10, 4e-9}})
			h.solve(p, oracle.SolveOptions{Beta: 0.7, InitPrices: append([]float64(nil), res.Prices...)})
		}, "07792a20975463fb"},
		{"oracle/all-dead-cold", func(t *testing.T, h *bitHash) {
			p := core.NewProblem([]float64{0, 0, 0})
			p.AddFlow([]int{0, 1}, pf)
			p.AddFlow([]int{1, 2}, fct(10e3))
			h.solve(p, oracle.SolveOptions{MaxIter: 50})
		}, "02f394e53b8ee959"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			h := newBitHash()
			r.run(t, &h)
			if got := fmt.Sprintf("%016x", uint64(h)); got != r.want {
				t.Errorf("bits %s, want %s", got, r.want)
			}
		})
	}
}
