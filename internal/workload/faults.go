package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"numfabric/internal/sim"
)

// Fault is one scheduled capacity event on a directed link: at At the
// link fails (capacity drops to zero) or recovers (capacity restores).
// The leap engine runs these through its event heap like completions
// (leap.Engine.FailLink/RecoverLink).
type Fault struct {
	At   sim.Time
	Link int
	Fail bool
}

// FaultConfig parameterizes a random link-failure process: failures
// form a Poisson process at Rate over Links links, and each failed
// link recovers after an exponentially distributed downtime.
type FaultConfig struct {
	// Links is the number of directed links faults are drawn from
	// (uniformly).
	Links int
	// Rate is the whole-fabric link-failure rate in failures per
	// second. Non-positive yields an empty schedule.
	Rate float64
	// MeanDowntime is the mean of the exponential downtime; recovery
	// is scheduled at failure + downtime (possibly beyond Horizon —
	// stranded flows must eventually resume). Non-positive makes every
	// failure permanent.
	MeanDowntime sim.Duration
	// Horizon bounds the failure instants (recoveries may land later).
	Horizon sim.Duration
}

// FaultSchedule generates a deterministic, seeded fault schedule:
// failure instants form a Poisson process, each failure picks a
// uniform random link, and each recovery follows after an exponential
// downtime. The result is sorted by time with failures ahead of
// recoveries at equal instants — the same order the leap engine's
// event heap retires them in. Nested faults are legal: a link may fail
// again before it recovered (the engine counts depth).
func FaultSchedule(cfg FaultConfig, rng *sim.RNG) []Fault {
	if !(cfg.Rate > 0) || cfg.Links <= 0 {
		return nil
	}
	var out []Fault
	t := sim.Time(0)
	for {
		gap := sim.Seconds(rng.ExpFloat64() / cfg.Rate)
		t = t.Add(gap)
		if t > sim.Time(cfg.Horizon) {
			break
		}
		l := rng.Intn(cfg.Links)
		out = append(out, Fault{At: t, Link: l, Fail: true})
		if cfg.MeanDowntime > 0 {
			down := sim.Seconds(rng.ExpFloat64() * cfg.MeanDowntime.Seconds())
			out = append(out, Fault{At: t.Add(down), Link: l, Fail: false})
		}
	}
	SortFaults(out)
	return out
}

// SortFaults orders a fault schedule the way the leap engine retires
// it: by time, failures before recoveries at the same instant, then by
// link id.
func SortFaults(fs []Fault) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Fail != b.Fail {
			return a.Fail
		}
		return a.Link < b.Link
	})
}

// ScriptedFault is one user-scripted fault against a named topology
// element, resolved to concrete links by the harness (a switch target
// expands to every incident link).
type ScriptedFault struct {
	// Target names what fails: "linkN" (directed link id), "hostN"
	// (host N's up+down links), "edgeP.E" / "aggP.A" (fat-tree edge or
	// aggregation switch in pod P), or "coreC" (fat-tree core switch).
	Target string
	// At is the failure instant.
	At sim.Duration
	// Down is how long the element stays down; 0 means permanently.
	Down sim.Duration
}

// ParseFaults parses a comma-separated fault spec — the CLI's -faults
// grammar. Each entry is target@time or target@time+downtime, with
// time and downtime in Go duration syntax:
//
//	link12@10ms          link 12 fails at 10 ms, permanently
//	agg0.1@5ms+20ms      agg switch 1 of pod 0 down from 5 ms to 25 ms
//	core3@1ms+2ms,host7@4ms
func ParseFaults(spec string) ([]ScriptedFault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []ScriptedFault
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		target, rest, ok := strings.Cut(part, "@")
		if !ok || target == "" {
			return nil, fmt.Errorf("workload: fault %q: want target@time[+downtime]", part)
		}
		atStr, downStr, hasDown := strings.Cut(rest, "+")
		at, err := time.ParseDuration(atStr)
		if err != nil {
			return nil, fmt.Errorf("workload: fault %q: bad time: %v", part, err)
		}
		if at < 0 {
			return nil, fmt.Errorf("workload: fault %q: negative time", part)
		}
		f := ScriptedFault{Target: target, At: sim.FromStd(at)}
		if hasDown {
			down, err := time.ParseDuration(downStr)
			if err != nil {
				return nil, fmt.Errorf("workload: fault %q: bad downtime: %v", part, err)
			}
			if down <= 0 {
				return nil, fmt.Errorf("workload: fault %q: downtime must be positive", part)
			}
			f.Down = sim.FromStd(down)
		}
		// A time the picosecond clock cannot hold saturates; taken as
		// an instant it would sit at the end of time (and used to wrap
		// to before the start).
		if sim.Time(0).Add(f.At).Add(f.Down) == sim.Forever {
			return nil, fmt.Errorf("workload: fault %q: time overflows the simulated clock (about 2562h)", part)
		}
		out = append(out, f)
	}
	return out, nil
}

// faultTargetKinds are the prefixes ParseFaultTarget understands.
var faultTargetKinds = []string{"link", "host", "edge", "agg", "core"}

// ParseFaultTarget splits a fault target into its kind and indices:
// "link12" → ("link", 12, 0), "agg0.1" → ("agg", 0, 1). Edge and agg
// targets require a P.E / P.A pair; the others a single index.
func ParseFaultTarget(target string) (kind string, i, j int, err error) {
	for _, k := range faultTargetKinds {
		if !strings.HasPrefix(target, k) {
			continue
		}
		kind = k
		idx := target[len(k):]
		if kind == "edge" || kind == "agg" {
			a, b, ok := strings.Cut(idx, ".")
			if !ok {
				return "", 0, 0, fmt.Errorf("workload: fault target %q: want %sP.N", target, kind)
			}
			if i, err = strconv.Atoi(a); err == nil {
				j, err = strconv.Atoi(b)
			}
		} else {
			i, err = strconv.Atoi(idx)
		}
		if err != nil || i < 0 || j < 0 {
			return "", 0, 0, fmt.Errorf("workload: fault target %q: bad index", target)
		}
		return kind, i, j, nil
	}
	return "", 0, 0, fmt.Errorf("workload: fault target %q: unknown kind (want link/host/edge/agg/core)", target)
}
