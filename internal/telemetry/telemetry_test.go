package telemetry

import (
	"strings"
	"testing"
	"time"
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

func TestOverlapSummary(t *testing.T) {
	// Fully hidden: the control loop never stalled.
	s := OverlapSummary(10*time.Second, 0, 40*time.Second)
	if !strings.Contains(s, "100% of stage cost hidden") {
		t.Errorf("zero stall should read as fully hidden: %q", s)
	}
	// Half hidden.
	s = OverlapSummary(10*time.Second, 5*time.Second, 40*time.Second)
	if !strings.Contains(s, "50% of stage cost hidden") {
		t.Errorf("want 50%% hidden: %q", s)
	}
	// Stall can exceed stage busy (scheduling noise): clamp at 0, never
	// report negative overlap.
	s = OverlapSummary(time.Second, 3*time.Second, 10*time.Second)
	if !strings.Contains(s, "0% of stage cost hidden") {
		t.Errorf("overshooting stall should clamp to 0%%: %q", s)
	}
	// No pipelined work at all.
	s = OverlapSummary(0, 0, 0)
	if !strings.Contains(s, "no perception stage work") {
		t.Errorf("empty stats should say so: %q", s)
	}
}
