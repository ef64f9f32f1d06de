package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hil"
)

// TestWriteSeriesCSV pins the Fig. 7 CSV bytes and the refusal to write
// a series that a resumed campaign never recorded.
func TestWriteSeriesCSV(t *testing.T) {
	samples := []hil.Sample{
		{T: 0, CPUPercent: 10, PerCore: []float64{10, 0, 0, 0}, MemMB: 100},
		{T: 1, CPUPercent: 187.25, PerCore: []float64{90, 60, 37.25, 0}, MemMB: 1234.5678},
	}
	want := "t,cpu_percent,mem_mb\n" +
		"0.00,10.000,100.000\n" +
		"1.00,187.250,1234.568\n"
	if got := string(seriesCSV(samples)); got != want {
		t.Errorf("CSV bytes:\n got %q\nwant %q", got, want)
	}

	// Flight 0 replayed from the journal has no monitor: the write fails,
	// names the cause, and leaves no file behind.
	path := filepath.Join(t.TempDir(), "f.csv")
	if err := writeSeriesFile(path, nil); !errors.Is(err, errNoSeries) {
		t.Fatalf("nil monitor: err = %v, want errNoSeries", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("nil monitor left a file behind (stat err %v)", err)
	}
}

// TestResourceLineScope pins the scope label of the §V-C resource line:
// none when every flight was flown in this process, the number of flights
// flown here when a resume replayed the others from the journal, and no
// line at all when none was flown here.
func TestResourceLineScope(t *testing.T) {
	mon := func() *hil.Monitor {
		m := hil.NewMonitor(hil.JetsonNanoMAXN(), hil.FieldCosts())
		for i := 1; i <= 3; i++ {
			m.RecordDetect()
			m.Advance(1, float64(i), 1<<20)
		}
		return m
	}
	fresh := resourceLine([]*hil.Monitor{mon(), mon(), mon()})
	if fresh == "" || strings.Contains(fresh, "this session") {
		t.Errorf("fresh campaign: %q, want the line without a scope", fresh)
	}
	resumed := resourceLine([]*hil.Monitor{nil, mon(), nil, mon()})
	if !strings.Contains(resumed, " over the 2 flights flown this session") {
		t.Errorf("resumed campaign: %q, want it scoped to the 2 flights flown this session", resumed)
	}
	if strings.Replace(resumed, " over the 2 flights flown this session", "", 1) != fresh {
		t.Errorf("resumed line %q differs from the fresh %q beyond its scope", resumed, fresh)
	}
	if got := resourceLine([]*hil.Monitor{nil, nil}); got != "" {
		t.Errorf("no flight flown here: %q, want no line", got)
	}
}
