package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("System", "Success", "Collision")
	tb.AddRow("MLS-V1", 24.67, 71.33)
	tb.AddRow("MLS-V3", 84.0, 3.33)
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "MLS-V1") || !strings.Contains(out, "24.67") {
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

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, "x")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,x\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Len() != 0 {
		t.Error("empty series stats")
	}
	s.Add(0, 1)
	s.Add(1, 3)
	s.Add(2, 2)
	if s.Mean() != 2 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Max() != 3 {
		t.Errorf("max = %v", s.Max())
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

func TestTableRowsAndSeriesEdges(t *testing.T) {
	tab := NewTable("a")
	if tab.Rows() != 0 {
		t.Fatal("fresh table has rows")
	}
	tab.AddRow(float32(1.5))
	if tab.Rows() != 1 {
		t.Fatal("AddRow did not count")
	}

	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Len() != 0 {
		t.Fatal("empty series stats should be zero")
	}
	s.Add(0, -3)
	s.Add(1, -1)
	if s.Max() != -1 {
		t.Fatalf("all-negative Max = %v, want -1", s.Max())
	}
	if s.Mean() != -2 {
		t.Fatalf("Mean = %v, want -2", s.Mean())
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	a := &Series{Name: "cpu"}
	a.Add(0, 10)
	a.Add(1, 20)
	b := &Series{Name: "mem"}
	b.Add(0, 100)
	var out strings.Builder
	if err := WriteSeriesCSV(&out, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out.String())
	}
	if lines[0] != "t,cpu,mem" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.00,10.000,100.000") {
		t.Errorf("row 1 = %q", lines[1])
	}
	// Second row: series b exhausted -> padded.
	if !strings.HasPrefix(lines[2], "1.00,20.000,") {
		t.Errorf("row 2 = %q", lines[2])
	}
	if err := WriteSeriesCSV(&out); err != nil {
		t.Errorf("empty series err: %v", err)
	}
}
