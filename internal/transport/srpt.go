package transport

import (
	"numfabric/internal/core"
	"numfabric/internal/sim"
)

// AttachSRPT upgrades a NUMFabric sender from Shortest-Flow-First to
// Shortest-Remaining-Processing-Time scheduling: §2 notes "the
// weights can be chosen inversely proportional to the remaining flow
// size ... to approximate Shortest-Remaining-Processing-Time". The
// utility is re-derived from the flow's remaining bytes every
// refreshPeriod, so a nearly finished large flow gains priority over a
// just-started medium one.
func AttachSRPT(s *NUMFabricSender) {
	refresh(s, func() core.Utility { return core.SRPTMin(s.flow.Remaining(), core.FCTEpsilon) })
}

// AttachDeadline is the Earliest-Deadline-First analogue: the utility
// weight grows as the deadline approaches (§2's EDF discussion).
// deadline is an absolute simulation time.
func AttachDeadline(s *NUMFabricSender, deadline sim.Time) {
	eng := s.flow.Engine()
	refresh(s, func() core.Utility { return core.Deadline(deadline.Sub(eng.Now()).Seconds(), core.FCTEpsilon) })
}

// refreshPeriod is how often AttachSRPT and AttachDeadline re-derive
// a sender's utility.
const refreshPeriod = 100 * sim.Microsecond

// refresh sets s's utility to u() every refreshPeriod until its flow
// is done or stopped.
func refresh(s *NUMFabricSender, u func() core.Utility) {
	eng := s.flow.Engine()
	var tick func()
	tick = func() {
		if s.flow.Done || s.flow.Stopped {
			return
		}
		s.u = u()
		eng.After(refreshPeriod, tick)
	}
	eng.After(refreshPeriod, tick)
}
