package fluid

import (
	"fmt"
	"math"
	"testing"

	"numfabric/internal/core"
	"numfabric/internal/oracle"
	"numfabric/internal/sim"
)

// The layer micro-benchmarks of the allocator kernels (ROADMAP 1(a)):
// one connected component of {2, 8, 64, 512} flows on the k=8
// fat-tree, each kernel alone, reporting ns per flow·iteration and
// allocs/op. Run with
//
//	go test -run '^$' -bench 'WeightedMaxMin|MaxMinFill|XWISolve|DGDSolve|OracleSolve' -benchmem ./internal/fluid/

var kernelSizes = []int{2, 8, 64, 512}

// kernelComponent returns n flows forming one connected component: a
// zigzag chain over random hosts in which consecutive flows share
// alternately a destination's downlink and a source's uplink.
func kernelComponent(ft *FatTree, n int, u core.Utility) []*Flow {
	rng := sim.NewRNG(uint64(n))
	var tbl FlowTable
	flows := make([]*Flow, n)
	prev := rng.Intn(ft.Hosts())
	for i := range flows {
		next := rng.Intn(ft.Hosts() - 1)
		if next >= prev {
			next++
		}
		src, dst := prev, next
		if i%2 == 1 {
			src, dst = next, prev
		}
		flows[i] = tbl.Acquire(ft.Route(src, dst, rng.Intn(ft.K*ft.K/4)), u, 1<<20, 0)
		prev = next
	}
	return flows
}

func kernelPaths(flows []*Flow) [][]int {
	paths := make([][]int, len(flows))
	for i, f := range flows {
		paths[i] = f.Links
	}
	return paths
}

// kernelWeights returns rounds weight vectors so successive solves do
// not repeat one input.
func kernelWeights(n, rounds int) [][]float64 {
	rng := sim.NewRNG(7)
	ws := make([][]float64, rounds)
	for r := range ws {
		ws[r] = make([]float64, n)
		for i := range ws[r] {
			ws[r][i] = 0.1 + 10*rng.Float64()
		}
	}
	return ws
}

func reportPerFlowIter(b *testing.B, flowIters int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(flowIters), "ns/flow-iter")
}

// BenchmarkWeightedMaxMin is the one-shot solve (WaterFill, the
// benchmark's reference simulator): discovery, adjacency and filling
// fused, on a reused workspace.
func BenchmarkWeightedMaxMin(b *testing.B) {
	ft := NewFatTree(8, 10e9)
	for _, n := range kernelSizes {
		paths := kernelPaths(kernelComponent(ft, n, core.ProportionalFair()))
		weights := kernelWeights(n, 16)
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			var ws oracle.MaxMinWorkspace
			x := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.WeightedMaxMin(ft.Net.Capacity, paths, weights[i%len(weights)], x)
			}
			reportPerFlowIter(b, int64(b.N)*int64(n))
		})
	}
}

// BenchmarkMaxMinFill is one xWI iteration's max-min step: the same
// solve after one Prepare.
func BenchmarkMaxMinFill(b *testing.B) {
	ft := NewFatTree(8, 10e9)
	for _, n := range kernelSizes {
		paths := kernelPaths(kernelComponent(ft, n, core.ProportionalFair()))
		weights := kernelWeights(n, 16)
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			var ws oracle.MaxMinWorkspace
			ws.Prepare(ft.Net.Capacity, paths)
			x := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Fill(weights[i%len(weights)], x)
			}
			reportPerFlowIter(b, int64(b.N)*int64(n))
		})
	}
}

// fctMinComponent is kernelComponent under the §6.3 FCT-min utility
// (ε = 0.125, sizes log-uniform over 1 KB–1 GB): every marginal and
// inverse marginal is a power, where ProportionalFair's are one
// division — the utility the fctmin-xwi and cli-leapfct workloads run.
func fctMinComponent(ft *FatTree, n int) []*Flow {
	flows := kernelComponent(ft, n, nil)
	rng := sim.NewRNG(uint64(n) + 1)
	for _, f := range flows {
		f.U = core.FCTMin(int64(1e3*math.Pow(1e6, rng.Float64())), 0.125)
	}
	return flows
}

// subsetSolver is what the solve benchmarks need of XWI and DGD.
type subsetSolver interface {
	Allocator
	IterCounter
}

// benchSubsetSolves is the leap engine's unit of allocator work — an
// AllocateSubset to the fixed point with warm prices, alternating
// between the component and the component less its last flow, as a
// departure and an arrival would — at every kernel size, under
// ProportionalFair (flows=N) and under FCTMin (fctmin/flows=N), each
// row on a fresh allocator.
func benchSubsetSolves(b *testing.B, alloc func() subsetSolver) {
	ft := NewFatTree(8, 10e9)
	row := func(name string, flows []*Flow) {
		n, a := len(flows), alloc()
		b.Run(fmt.Sprintf(name, n), func(b *testing.B) {
			rates := make([]float64, n)
			a.AllocateSubset(ft.Net, flows, rates)
			a.AllocateSubset(ft.Net, flows[:n-1], rates)
			start := a.SolveIters()
			var flowIters int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub := flows[:n-i%2]
				before := a.SolveIters()
				a.AllocateSubset(ft.Net, sub, rates)
				flowIters += (a.SolveIters() - before) * int64(len(sub))
			}
			reportPerFlowIter(b, flowIters)
			b.ReportMetric(float64(a.SolveIters()-start)/float64(b.N), "iters/op")
		})
	}
	for _, n := range kernelSizes {
		row("flows=%d", kernelComponent(ft, n, core.ProportionalFair()))
	}
	for _, n := range kernelSizes {
		row("fctmin/flows=%d", fctMinComponent(ft, n))
	}
}

// BenchmarkXWISolve: harness.LeapAllocatorFor(NUMFabric)'s settings.
func BenchmarkXWISolve(b *testing.B) {
	benchSubsetSolves(b, func() subsetSolver { return &XWI{Eta: 5, Beta: 0.5, IterPerEpoch: 48, Tol: 1e-3} })
}

// BenchmarkDGDSolve: harness.LeapAllocatorFor(DGD)'s settings — one
// inverse marginal per flow per gradient step.
func BenchmarkDGDSolve(b *testing.B) {
	benchSubsetSolves(b, func() subsetSolver { return &DGD{IterPerEpoch: 600, Tol: 1e-3} })
}

// BenchmarkOracleSolve is the Oracle at harness.FluidIdealFCTs'
// MaxIter, through its whole-set Allocate (refsim's path; the ideals
// themselves go through leap's per-component AllocateSubset): the
// core.Problem rebuilt and oracle.Solve'd per call, warm-started from
// the previous call's prices, alternating between the component and the
// component less its last flow. The flows=N rows are kernelComponent's
// chains on the fat-tree (oracle.Solve's dual Newton while they span at
// most 64 link classes, the xWI iteration beyond); the star/flows=N rows
// are N FCT-min flows sharing one source uplink, each on to a downlink
// of its own, which oracle.Solve takes in closed form; the chain/flows=N
// rows are N FCT-min flows where flow i shares one link with flow i+1,
// each with a private link too, which it takes by the dual Newton (2
// flows make a star; 64 and 512 exceed its 64 classes and iterate).
// iters/op and ns/flow-iter count what Result.Iterations reports: xWI
// iterations, 1 for the closed form, Newton steps for the Newton.
func BenchmarkOracleSolve(b *testing.B) {
	row := func(name string, net *Network, flows []*Flow) {
		n := len(flows)
		b.Run(fmt.Sprintf(name, n), func(b *testing.B) {
			o := &Oracle{MaxIter: 1500}
			rates := make([]float64, n)
			o.Allocate(net, flows, rates)
			o.Allocate(net, flows[:n-1], rates)
			start := o.SolveIters()
			var flowIters int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub := flows[:n-i%2]
				before := o.SolveIters()
				o.Allocate(net, sub, rates)
				flowIters += (o.SolveIters() - before) * int64(len(sub))
			}
			reportPerFlowIter(b, flowIters)
			b.ReportMetric(float64(o.SolveIters()-start)/float64(b.N), "iters/op")
		})
	}
	ft := NewFatTree(8, 10e9)
	for _, n := range kernelSizes {
		row("flows=%d", ft.Net, kernelComponent(ft, n, core.ProportionalFair()))
	}
	for _, n := range kernelSizes {
		var tbl FlowTable
		capacity := make([]float64, n+1)
		flows := make([]*Flow, n)
		rng := sim.NewRNG(uint64(n) + 2)
		for i := range flows {
			capacity[i+1] = 10e9
			size := int64(1e3 * math.Pow(1e6, rng.Float64()))
			flows[i] = tbl.Acquire([]int{0, i + 1}, core.FCTMin(size, 0.125), size, 0)
		}
		capacity[0] = 10e9
		row("star/flows=%d", NewNetwork(capacity), flows)
	}
	for _, n := range kernelSizes {
		var tbl FlowTable
		capacity := make([]float64, 2*n+1)
		flows := make([]*Flow, n)
		rng := sim.NewRNG(uint64(n) + 3)
		for i := range flows {
			capacity[2*i], capacity[2*i+1] = 10e9, (2+8*rng.Float64())*1e9
			size := int64(1e3 * math.Pow(1e6, rng.Float64()))
			flows[i] = tbl.Acquire([]int{2 * i, 2*i + 1, 2*i + 2}, core.FCTMin(size, 0.125), size, 0)
		}
		capacity[2*n] = 10e9
		row("chain/flows=%d", NewNetwork(capacity), flows)
	}
}
