package fluid

import (
	"runtime"
	"sync"
	"sync/atomic"

	"numfabric/internal/sim"
)

// Sweep fans n independent jobs across GOMAXPROCS worker goroutines
// and returns their results in shard order. Each shard receives its
// own RNG whose stream is derived deterministically from the master
// seed and the shard index alone — results are bit-identical
// regardless of worker count or scheduling, so a sweep parallelized
// 32-wide reproduces a serial run exactly.
//
// Jobs must be independent (no shared mutable state); a job typically
// builds its own Network and Engine from the shard index and RNG.
func Sweep[T any](seed uint64, n int, job func(shard int, rng *sim.RNG) T) []T {
	workers := min(runtime.GOMAXPROCS(0), n)
	// Per-shard seeds are drawn serially up front so the mapping
	// shard → stream never depends on execution order.
	master := sim.NewRNG(seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	out := make([]T, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = job(i, sim.NewRNG(seeds[i]))
			}
		}()
	}
	wg.Wait()
	return out
}
