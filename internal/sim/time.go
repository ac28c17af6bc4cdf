// Package sim provides a deterministic discrete-event simulation engine.
//
// Simulated time is an int64 count of picoseconds. At datacenter link
// speeds this makes every packet serialization time an exact integer
// (one bit at 10 Gb/s is exactly 100 ps, at 40 Gb/s exactly 25 ps), so
// simulations are bit-deterministic across runs and platforms.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in simulated time, in picoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of simulated time, in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a time later than any reachable simulation time.
const Forever Time = 1<<63 - 1

// Add returns t shifted by d, saturating at ±Forever instead of
// wrapping on int64 overflow — so a time pushed past the horizon stays
// later than every reachable time rather than going negative.
func (t Time) Add(d Duration) Time {
	s := t + Time(d)
	if d >= 0 {
		if s < t {
			return Forever
		}
	} else if s > t || s < -Forever {
		// s < -Forever catches the one representable value below the
		// floor (int64 min = -Forever − 1).
		return -Forever
	}
	return s
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e12 }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e12 }

// Std converts a simulated duration to a time.Duration (nanosecond
// resolution; sub-nanosecond detail is truncated).
func (d Duration) Std() time.Duration { return time.Duration(int64(d) / 1000) }

// FromStd converts a time.Duration into a simulated Duration. A span
// beyond the int64 picosecond range (about ±2,562 hours) saturates at
// ±Duration(Forever), as Seconds does, instead of wrapping negative.
func FromStd(d time.Duration) Duration {
	const limit = time.Duration(Duration(Forever) / Nanosecond)
	switch {
	case d > limit:
		return Duration(Forever)
	case d < -limit:
		return -Duration(Forever)
	}
	return Duration(d.Nanoseconds()) * Nanosecond
}

// Seconds constructs a Duration from a floating-point number of
// seconds. Values beyond the int64 picosecond range — including ±Inf,
// and NaN — saturate at ±Duration(Forever): the float→int conversion
// is implementation-defined out of range (Go spec), and on common
// platforms wraps to the minimum int64, which silently turned a
// too-long duration into a hugely negative one.
func Seconds(s float64) Duration {
	ps := s * 1e12
	switch {
	case math.IsNaN(ps):
		return Duration(Forever)
	case ps >= float64(Forever):
		return Duration(Forever)
	case ps <= -float64(Forever):
		return -Duration(Forever)
	}
	return Duration(ps)
}

func (t Time) String() string { return Duration(t).String() }

// String prints microseconds to three places, except a nonzero value
// under 1 ns, which three places would round to -0.000us, 0.000us or
// 0.001us: it prints in picoseconds.
func (d Duration) String() string {
	if d != 0 && d > -Nanosecond && d < Nanosecond {
		return fmt.Sprintf("%dps", int64(d))
	}
	return fmt.Sprintf("%.3fus", float64(d)/1e6)
}

// BitRate is a link speed in bits per second.
type BitRate int64

// Common bit rates.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1000 * BitPerSecond
	Mbps                 = 1000 * Kbps
	Gbps                 = 1000 * Mbps
)

// TxTime returns the serialization delay for n bytes at rate r.
// When 10^12 is divisible by r (true for all standard datacenter rates,
// e.g. 10 and 40 Gb/s) the result is exact.
func (r BitRate) TxTime(n int) Duration {
	if r <= 0 {
		return Duration(Forever)
	}
	bits := int64(n) * 8
	if psPerBit := int64(1e12) / int64(r); int64(1e12)%int64(r) == 0 {
		return Duration(bits * psPerBit)
	}
	return Duration(float64(bits) * 1e12 / float64(r))
}

// Float returns the rate in bits/second as a float64.
func (r BitRate) Float() float64 { return float64(r) }

func (r BitRate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}
