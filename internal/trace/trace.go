// Package trace holds the result tables behind the paper's figures
// (a CDF, a sweep, a time series: named columns of float64 rows) and
// writes them as CSV for plotting; internal/paper's experiments write
// one per figure when given a directory.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"numfabric/internal/stats"
)

// Table is a result table: named columns, one float64 per column in
// each row.
type Table struct {
	Columns []string
	Rows    [][]float64
}

// NewTable creates a table with the given column names.
func NewTable(columns ...string) *Table { return &Table{Columns: columns} }

// Append adds one row; its length must match the column count.
func (t *Table) Append(row ...float64) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("trace: row has %d values, table has %d columns", len(row), len(t.Columns))
	}
	t.Rows = append(t.Rows, append([]float64(nil), row...))
	return nil
}

// WriteCSV emits the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	row := make([]string, len(t.Columns))
	for _, r := range t.Rows {
		for i, v := range r {
			row[i] = strconv.FormatFloat(v, 'g', 10, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FromCDF converts stats CDF points into a two-column table.
func FromCDF(points []stats.CDFPoint, xName string) *Table {
	t := NewTable(xName, "p")
	for _, pt := range points {
		_ = t.Append(pt.X, pt.P)
	}
	return t
}
