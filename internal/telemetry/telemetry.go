// Package telemetry provides the small result-rendering utilities the
// benchmark commands share: aligned tables for paper-style rows and the
// pipelined runner's stage-overlap summary line.
package telemetry

import (
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
