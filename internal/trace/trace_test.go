package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"numfabric/internal/stats"
)

func TestWriteCSV(t *testing.T) {
	tab := NewTable("a", "b")
	_ = tab.Append(1, 3)
	_ = tab.Append(2, 1.0/3)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d", len(recs))
	}
	if strings.Join(recs[0], ",") != "a,b" {
		t.Errorf("header = %v", recs[0])
	}
	if recs[1][1] != "3" || recs[2][1] != "0.3333333333" {
		t.Errorf("values wrong: %v", recs)
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTable("x", "y").WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x,y\n" {
		t.Errorf("a table without rows wrote %q, want the header alone", buf.String())
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("load", "fct")
	if err := tab.Append(0.4, 1.2); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(0.2, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(0.2); err == nil {
		t.Error("short row accepted")
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "load,fct\n0.4,1.2\n0.2,1\n" {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestFromCDF(t *testing.T) {
	tab := FromCDF([]stats.CDFPoint{{X: 1, P: 0.5}, {X: 2, P: 1}}, "ms")
	if len(tab.Rows) != 2 || tab.Columns[0] != "ms" {
		t.Errorf("table = %+v", tab)
	}
}
