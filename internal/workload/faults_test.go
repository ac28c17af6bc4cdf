package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"numfabric/internal/sim"
)

func TestParseFaults(t *testing.T) {
	ms := sim.Millisecond
	for _, tc := range []struct {
		spec    string
		want    []ScriptedFault
		wantErr string
	}{
		{"", nil, ""},
		{" , ", nil, ""},
		{"link12@10ms", []ScriptedFault{{Target: "link12", At: 10 * ms}}, ""},
		{"agg0.1@5ms+20ms, host7@4ms", []ScriptedFault{
			{Target: "agg0.1", At: 5 * ms, Down: 20 * ms}, {Target: "host7", At: 4 * ms}}, ""},
		{"link0@2562h", []ScriptedFault{{Target: "link0", At: 2562 * 3600 * sim.Second}}, ""},
		{"link0", nil, "want target@time"},
		{"@1ms", nil, "want target@time"},
		{"link0@soon", nil, "bad time"},
		{"link0@-1ms", nil, "negative time"},
		{"link0@1ms+0s", nil, "downtime must be positive"},
		{"link0@1ms+x", nil, "bad downtime"},
		// Past the picosecond clock: the time alone, the downtime
		// alone, and only their sum.
		{"link0@3000h", nil, `"link0@3000h": time overflows`},
		{"link1@1ms,link0@1ms+3000h", nil, `"link0@1ms+3000h": time overflows`},
		{"link0@2000h+1000h", nil, "time overflows"},
	} {
		got, err := ParseFaults(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseFaults(%q): error %v, want one containing %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFaults(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}

// FuzzParseFaults: the -faults grammar never panics, never returns a
// negative time or downtime (a wrapped time used to fire at t = 0),
// and an accepted spec written back in the grammar parses to the same
// list.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{"link12@10ms", "agg0.1@5ms+20ms,core3@1ms+2ms,host7@4ms",
		"link0@3000h", "link0@2562h+1h", " , ", "edge1.1@1.5us+1ns", "@", "a@b+c", "link0@-0s"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseFaults(spec)
		if err != nil {
			return
		}
		var parts []string
		for _, sf := range faults {
			if sf.At < 0 || sf.Down < 0 {
				t.Fatalf("ParseFaults(%q): negative time in %+v", spec, sf)
			}
			part := fmt.Sprintf("%s@%dns", sf.Target, sf.At/sim.Nanosecond)
			if sf.Down > 0 {
				part += fmt.Sprintf("+%dns", sf.Down/sim.Nanosecond)
			}
			parts = append(parts, part)
		}
		again, err := ParseFaults(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, faults) {
			t.Fatalf("ParseFaults(%q) = %v, but its re-rendering parses to %v, %v", spec, faults, again, err)
		}
	})
}
