// Package telemetry provides the small result-recording utilities the
// benchmark commands share: aligned-table rendering for paper-style rows
// and CSV export of time series (the Fig. 7 resource traces) and run logs.
package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{Header: header}
}

// AddRow appends one row; values are stringified with %v, floats with two
// decimals.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = strconv.FormatFloat(x, 'f', 2, 64)
		case float32:
			row[i] = strconv.FormatFloat(float64(x), 'f', 2, 64)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes header and rows as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("telemetry: write header: %w", err)
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return fmt.Errorf("telemetry: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// OverlapSummary renders the pipelined runner's stage-overlap report: how
// much perception compute ran off the control loop (stageBusy), how long
// the control loop stalled waiting on tick-stamped deliveries (stalled),
// and — the number that matters — the fraction of stage cost the pipeline
// hid behind control compute. All three bench commands print it under
// -pipeline from scenario.ReadPipelineStats.
func OverlapSummary(stageBusy, stalled, wall time.Duration) string {
	if stageBusy <= 0 {
		return "pipeline: no perception stage work recorded"
	}
	hidden := 1 - stalled.Seconds()/stageBusy.Seconds()
	if hidden < 0 {
		hidden = 0
	}
	if hidden > 1 {
		hidden = 1
	}
	return fmt.Sprintf("pipeline: perception stage %.2fs off-loop, control stalled %.2fs over %.2fs of runs (%.0f%% of stage cost hidden)",
		stageBusy.Seconds(), stalled.Seconds(), wall.Seconds(), 100*hidden)
}

// Series is a named time series for CSV export (Fig. 7 traces).
type Series struct {
	Name   string
	T      []float64
	Values []float64
}

// Add appends one sample.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Mean returns the average value, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the maximum value, or 0 for an empty series.
func (s *Series) Max() float64 {
	var m float64
	for i, v := range s.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// WriteSeriesCSV writes multiple series sharing a time base as CSV
// columns: t, name1, name2, ... Series shorter than the longest are padded
// with empty cells.
func WriteSeriesCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	cw := csv.NewWriter(w)
	header := []string{"t"}
	maxLen := 0
	for _, s := range series {
		header = append(header, s.Name)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("telemetry: write header: %w", err)
	}
	for i := 0; i < maxLen; i++ {
		row := make([]string, 0, len(series)+1)
		wroteT := false
		for _, s := range series {
			if i < s.Len() && !wroteT {
				row = append(row, strconv.FormatFloat(s.T[i], 'f', 2, 64))
				wroteT = true
				break
			}
		}
		if !wroteT {
			row = append(row, "")
		}
		for _, s := range series {
			if i < s.Len() {
				row = append(row, strconv.FormatFloat(s.Values[i], 'f', 3, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("telemetry: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
