package fluid

import (
	"runtime"
	"testing"

	"numfabric/internal/sim"
)

// withProcs sets GOMAXPROCS, and so Sweep's worker count, to n for
// the rest of the test.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSweepEmpty: n == 0 returns an empty (non-nil-safe) result and
// never invokes the job — there is nothing to fan out.
func TestSweepEmpty(t *testing.T) {
	called := false
	out := Sweep(1, 0, func(shard int, rng *sim.RNG) int {
		called = true
		return shard
	})
	if len(out) != 0 {
		t.Fatalf("Sweep(n=0) returned %d results", len(out))
	}
	if called {
		t.Fatal("Sweep(n=0) invoked the job")
	}
}

// TestSweepMoreWorkersThanJobs: GOMAXPROCS far above n is clamped —
// every job runs exactly once, in shard order.
func TestSweepMoreWorkersThanJobs(t *testing.T) {
	withProcs(t, 64)
	out := Sweep(7, 3, func(shard int, rng *sim.RNG) int {
		return shard
	})
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("result %d = %d, want shard order", i, v)
		}
	}
}

// TestSweepWorkerCountInvariance pins the doc promise directly: a
// sweep parallelized 32-wide reproduces the serial run byte-for-byte,
// including each shard's full RNG stream (not just its first draw).
func TestSweepWorkerCountInvariance(t *testing.T) {
	job := func(shard int, rng *sim.RNG) [4]uint64 {
		var v [4]uint64
		for i := range v {
			v[i] = rng.Uint64()
		}
		return v
	}
	withProcs(t, 1)
	serial := Sweep(99, 40, job)
	runtime.GOMAXPROCS(32)
	wide := Sweep(99, 40, job)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("shard %d: 1 worker %v != 32 workers %v", i, serial[i], wide[i])
		}
	}
}
