package telemetry

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("System", "Success", "Collision")
	tb.AddRow("MLS-V1", 24.67, 71.33)
	tb.AddRow("MLS-V3", 84.0, float32(3.5))
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "MLS-V1") || !strings.Contains(out, "24.67") || !strings.Contains(out, "3.50") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("line count %d:\n%s", len(lines), out)
	}
	// Columns align: every line has the same prefix width for column 2.
	idx := strings.Index(lines[0], "Success")
	if !strings.HasPrefix(lines[2][idx:], "24.67") {
		t.Errorf("misaligned columns:\n%s", out)
	}
}
