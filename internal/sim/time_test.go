package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDurationConversions(t *testing.T) {
	if Second != 1e12 {
		t.Errorf("Second = %d ps", int64(Second))
	}
	if got := Seconds(1.5); got != Duration(1.5e12) {
		t.Errorf("Seconds(1.5) = %d", int64(got))
	}
	if got := FromStd(3 * time.Microsecond); got != 3*Microsecond {
		t.Errorf("FromStd = %v", got)
	}
	if got := (2500 * Nanosecond).Std(); got != 2500*time.Nanosecond {
		t.Errorf("Std = %v", got)
	}
	if got := Time(5 * Millisecond).Seconds(); got != 0.005 {
		t.Errorf("Seconds = %v", got)
	}
}

func TestTimeAddSub(t *testing.T) {
	a := Time(100)
	b := a.Add(50)
	if b != 150 || b.Sub(a) != 50 {
		t.Errorf("Add/Sub wrong: %v %v", b, b.Sub(a))
	}
}

// TestSecondsSaturates: out-of-range, infinite, and NaN second counts
// saturate at ±Duration(Forever) instead of hitting Go's
// implementation-defined float→int64 conversion (which wraps to the
// minimum int64 on common platforms, turning "longer than the
// simulation horizon" into "before it started").
func TestSecondsSaturates(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		in   float64
		want Duration
	}{
		{1.5, Duration(1.5e12)},
		{0, 0},
		{-2, Duration(-2e12)},
		{inf, Duration(Forever)},
		{-inf, -Duration(Forever)},
		{math.NaN(), Duration(Forever)},
		{1e30, Duration(Forever)},
		{-1e30, -Duration(Forever)},
		{9.3e6, Duration(Forever)}, // 9.3e18 ps, just past int64 max
		{-9.3e6, -Duration(Forever)},
		{9.2e6, Duration(9.2e18)}, // just inside
	} {
		if got := Seconds(tc.in); got != tc.want {
			t.Errorf("Seconds(%v) = %d, want %d", tc.in, int64(got), int64(tc.want))
		}
	}
}

// TestFromStdSaturates: a time.Duration past the picosecond range
// (≈ 2,562 h) saturates instead of wrapping — "3000h" used to convert
// to −7.6·10⁶ s.
func TestFromStdSaturates(t *testing.T) {
	const edge = time.Duration(Duration(Forever) / Nanosecond) // largest exact conversion
	for _, tc := range []struct {
		in   time.Duration
		want Duration
	}{
		{0, 0},
		{-3 * time.Microsecond, -3 * Microsecond},
		{2562 * time.Hour, 2562 * 3600 * Second},
		{edge, Duration(edge) * Nanosecond},
		{edge + 1, Duration(Forever)},
		{-edge - 1, -Duration(Forever)},
		{3000 * time.Hour, Duration(Forever)},
		{-3000 * time.Hour, -Duration(Forever)},
		{math.MaxInt64, Duration(Forever)},
		{math.MinInt64, -Duration(Forever)},
	} {
		if got := FromStd(tc.in); got != tc.want {
			t.Errorf("FromStd(%v) = %d, want %d", tc.in, int64(got), int64(tc.want))
		}
	}
}

// TestTimeAddSaturates: Add saturates at ±Forever on overflow instead
// of wrapping, so time pushed past the horizon stays in the future.
func TestTimeAddSaturates(t *testing.T) {
	for _, tc := range []struct {
		t    Time
		d    Duration
		want Time
	}{
		{Forever, Duration(Forever), Forever},
		{Forever, Second, Forever},
		{Forever - 10, 10, Forever},
		{Forever - 10, 11, Forever},
		{-Forever, -Duration(Forever), -Forever},
		{-Forever + 10, -11, -Forever},
		{100, -200, -100},
		{Forever, -Duration(Forever), 0},
	} {
		if got := tc.t.Add(tc.d); got != tc.want {
			t.Errorf("Time(%d).Add(%d) = %d, want %d",
				int64(tc.t), int64(tc.d), int64(got), int64(tc.want))
		}
	}
}

func TestBitRateStrings(t *testing.T) {
	cases := map[BitRate]string{
		10 * Gbps:  "10Gbps",
		400 * Mbps: "400Mbps",
		999:        "999bps",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(r), got, want)
		}
	}
}

func TestTxTimeZeroRate(t *testing.T) {
	if got := BitRate(0).TxTime(100); got != Duration(Forever) {
		t.Errorf("zero rate TxTime = %v", got)
	}
}

func TestTxTimeProportionalProperty(t *testing.T) {
	// TxTime is linear in bytes for divisible rates.
	f := func(nRaw uint16) bool {
		n := int(nRaw%9000) + 1
		r := 10 * Gbps
		return r.TxTime(2*n) == 2*r.TxTime(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	for _, tc := range []struct {
		d    Duration
		want string
	}{
		{1500 * Microsecond, "1500.000us"},
		{5 * Microsecond, "5.000us"},
		{-1, "-1ps"},
		{0, "0.000us"},
		{999, "999ps"},
		{Nanosecond, "0.001us"},
		{16 * Microsecond, "16.000us"},
	} {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(tc.d), got, tc.want)
		}
		if got := Time(tc.d).String(); got != tc.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(tc.d), got, tc.want)
		}
	}
}

func TestEngineAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(10, func() {
		e.After(-5, func() { ran = true })
	})
	e.Run(Forever)
	if !ran {
		t.Error("After with negative duration never ran")
	}
}

func TestRNGShuffle(t *testing.T) {
	r := NewRNG(4)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != len(orig) {
		t.Errorf("shuffle lost elements: %v", xs)
	}
}
