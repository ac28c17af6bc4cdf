package main

import (
	"time"
)

// The host this benchmark runs on is a slice of a shared machine, and
// its speed moves with what the other tenants do: the same deterministic
// play takes 10–45 % longer for spells of seconds to minutes, in CPU time
// as much as in wall time, so no statistic over the plays of one run
// removes it. What does is a clock that slows down with the host: a fixed
// piece of work, owned by the benchmark and touching none of the code
// under test, timed right before and right after every play. A play's
// times are divided by how slow that work ran beside it (its slowdown),
// which turns them into seconds of a host at its nominal speed.
//
// Measured on this host with one kernel sample between back-to-back
// plays (10 minutes, same seed, spread = interquartile range ÷ median of
// per-run medians): fig5-leap 24 % raw → 9 % divided by the slowdown,
// poisson-wf 6.4 % → 3.0 %, cli-leapfct 13.5 % → 9.9 %.
//
// The kernel is two loops chosen because the plays' slow spells show in
// them: dependent loads through a 64 MB table (memory latency, TLB; the
// event heap and flow tables behave like it) and allocation of small
// linked nodes (allocator, GC, cache traffic; the ideal-FCT solver and
// the CLI's admission behave like it). A pure register loop does not
// see the spells and is not part of it.

const (
	chaseEntries = 16 << 20 // uint32 each: 64 MB, far beyond any cache share
	chaseSteps   = 600_000
	churnNodes   = 1_500_000
	// nominalSample is one sample's duration on this host class at its
	// usual speed; slowdowns are relative to it. It only fixes the scale
	// of the reported seconds.
	nominalSample = 160 * time.Millisecond
	// calibrateShare is how much of a play's duration is spent sampling
	// after it (never less than one sample): long plays get several
	// samples, so that one disturbed sample cannot move them.
	calibrateShare = 0.1
)

type churnNode struct {
	next *churnNode
	pad  [6]uint64
}

// hostClock holds the kernel's table. Its sink fields keep the
// compiler from discarding the loops.
type hostClock struct {
	chase []uint32
	at    uint32
	sink  *churnNode
}

// newHostClock builds the table as one full cycle over all entries
// (i → a·i + c mod 2^24 with c odd and a ≡ 1 mod 4 has full period), so
// that successive loads land on unrelated cache lines and pages.
func newHostClock() *hostClock {
	h := &hostClock{chase: make([]uint32, chaseEntries)}
	for i := range h.chase {
		h.chase[i] = (uint32(i)*1664525 + 1013904223) % chaseEntries
	}
	h.sample() // the first pass pays the page faults
	return h
}

// sample runs the kernel once and returns how long it took.
func (h *hostClock) sample() time.Duration {
	start := time.Now()
	at := h.at
	for range chaseSteps {
		at = h.chase[at]
	}
	h.at = at
	var head *churnNode
	for i := range churnNodes {
		head = &churnNode{next: head}
		head.pad[0] = uint64(i)
		if i%1000 == 999 {
			head = nil // a thousand live nodes at most: garbage, not heap
		}
	}
	h.sink = head
	return time.Since(start)
}

// slowdown samples the kernel for calibrateShare of a play that took
// playWall (at least once) and returns the median sample ÷ nominal.
func (h *hostClock) slowdown(playWall time.Duration) float64 {
	var samples []float64
	for spent := time.Duration(0); len(samples) == 0 || float64(spent) < calibrateShare*float64(playWall); {
		d := h.sample()
		spent += d
		samples = append(samples, d.Seconds())
	}
	_, median, _ := quartiles(samples)
	return median / nominalSample.Seconds()
}
