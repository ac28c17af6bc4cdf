package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// realTrace is a WriteJSONL export with every record type in it: a
// kept finished flow with a loss, a flow still active, two links.
func realTrace(t testing.TB) []byte {
	t.Helper()
	ft := traced(FlowTraceConfig{SampleRate: 1})
	ft.SetLinkName(func(l int) string { return []string{"a", "b", "c"}[l] })
	ft.Admit(0, 10, 0, []int{0, 2})
	ft.Rate(0, 0, 2.5, 0, CauseSolve, 2, 1)
	ft.Complete(0, 32)
	ft.Admit(1, 10, 30, []int{1})
	var buf bytes.Buffer
	if err := ft.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reencodes fails unless an accepted trace is a fixed point of
// write → read → write: the reader dropped and invented nothing the
// writer can express.
func reencodes(t *testing.T, ft *FlowTrace) {
	t.Helper()
	var first, second bytes.Buffer
	if err := ft.WriteJSONL(&first); err != nil {
		t.Fatalf("accepted trace does not encode: %v", err)
	}
	again, err := ReadFlowTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("accepted trace does not read back: %v\n%s", err, first.Bytes())
	}
	if err := again.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding moved:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
	}
}

// TestReadFlowTraceHostileInput: every way a trace file can be wrong
// is a defined error naming the record, and the schema error names
// both versions.
func TestReadFlowTraceHostileInput(t *testing.T) {
	real := realTrace(t)
	ft, err := ReadFlowTrace(bytes.NewReader(real))
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Flows) != 2 || len(ft.Links) == 0 || ft.Summary.Schema != SchemaVersion {
		t.Fatalf("real trace read back as %+v", ft)
	}
	reencodes(t, ft)
	var again bytes.Buffer
	if err := ft.WriteJSONL(&again); err != nil || !bytes.Equal(again.Bytes(), real) {
		t.Errorf("a real trace read back re-encodes differently (%v):\n%s\nwrote\n%s", err, again.Bytes(), real)
	}

	// A literal stamp, not SchemaVersion: bumping the constant fails here
	// until someone has decided what this reader does with the traces
	// already on disk.
	if _, err := ReadFlowTrace(strings.NewReader(`{"type":"summary","schema":1,"tracked":3}` + "\n")); err != nil {
		t.Errorf("a schema-1 trace: %v", err)
	}

	lines := strings.SplitAfter(string(real), "\n")
	summary, rest := lines[0], strings.Join(lines[1:], "")
	stamp := fmt.Sprintf(`"schema":%d`, SchemaVersion)
	if !strings.Contains(summary, stamp) {
		t.Fatalf("summary record carries no %s: %s", stamp, summary)
	}
	both := func(got int) string {
		return fmt.Sprintf("schema %d, this reader understands schema %d", got, SchemaVersion)
	}
	for _, c := range []struct{ name, in, want string }{
		{"empty file", "", "no summary record"},
		{"no summary", rest, "no summary record"},
		{"summary twice", summary + summary + rest, "record 2: a second summary record"},
		{"no schema stamp", strings.Replace(summary, stamp+",", "", 1) + rest, "record 1: " + both(0)},
		{"a later schema", strings.Replace(summary, stamp, fmt.Sprintf(`"schema":%d`, SchemaVersion+1), 1) + rest, "record 1: " + both(SchemaVersion+1)},
		{"schema of the wrong type", strings.Replace(summary, stamp, `"schema":"1"`, 1) + rest, "record 1: json: cannot unmarshal"},
		{"truncated mid-record", string(real[:len(real)-20]), "unexpected EOF"},
		{"not JSON", summary + "flow 7 was slow\n", "record 2: invalid character"},
		{"a record that is no object", summary + "[1,2]\n", "record 2: json: cannot unmarshal"},
		{"negative lost link", summary + `{"type":"flow","id":1,"lost":[{"link":-4,"lost_seconds":1}],"segs":[]}` + "\n", "record 2: lost service on link -4"},
		{"negative link line", summary + `{"type":"link","link":-1}` + "\n", "record 2: statistics of link -1"},
		{"link id past int", summary + `{"type":"link","link":1e40}` + "\n", "record 2: json: cannot unmarshal"},
		{"flow id of the wrong type", summary + `{"type":"flow","id":"seven"}` + "\n", "record 2: json: cannot unmarshal"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadFlowTrace(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want one containing %q", err, c.want)
			}
		})
	}

	// Accepted, not errors: a record type this reader does not know, and
	// one line far past any line-buffer size.
	huge := summary + `{"type":"flow","id":3,"segs":[],"pad":"` + strings.Repeat("x", 1<<20) + `"}` + "\n" + `{"type":"note","text":"hi"}` + "\n"
	ft, err = ReadFlowTrace(strings.NewReader(huge))
	if err != nil || len(ft.Flows) != 1 || ft.Flows[0].ID != 3 {
		t.Fatalf("oversized line and unknown record type: %v, %+v", err, ft)
	}
	reencodes(t, ft)
}

// FuzzReadFlowTrace: whatever the bytes, ReadFlowTrace returns a
// defined error or a trace that re-encodes to itself — never a panic
// or a hang.
func FuzzReadFlowTrace(f *testing.F) {
	real := realTrace(f)
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(real[bytes.IndexByte(real, '\n')+1:])
	f.Add(append(append([]byte{}, real[:bytes.IndexByte(real, '\n')+1]...), real...))
	f.Add([]byte(`{"type":"summary","schema":1}` + "\n" + `{"type":"link","link":-1}` + "\n"))
	f.Add([]byte(`{"type":"summary","schema":1}` + "\n" + `{"type":"flow","lost":[{"link":9223372036854775807}],"segs":[{"bneck":-7}]}` + "\n"))
	f.Add([]byte(`{"type":"summary","schema":1}` + "\n" + `{"type":"flow","pad":"` + strings.Repeat("x", 1<<16) + `"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, err := ReadFlowTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		reencodes(t, ft)
		ft.TailAttribution(0.5)
	})
}
