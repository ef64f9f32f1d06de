package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// TestWriteSeriesCSV pins the Fig. 7 CSV bytes.
func TestWriteSeriesCSV(t *testing.T) {
	series := []obs.Event{
		{T: 0, Kind: "resource", Value: 10, MemMB: 100},
		{T: 1, Kind: "resource", Value: 187.25, MemMB: 1234.5678},
	}
	want := "t,cpu_percent,mem_mb\n" +
		"0.00,10.000,100.000\n" +
		"1.00,187.250,1234.568\n"
	if got := string(seriesCSV(series)); got != want {
		t.Errorf("CSV bytes:\n got %q\nwant %q", got, want)
	}
}

// stdout captures what f prints.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	f()
	os.Stdout = old
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResourceLineScope pins the scope of the §V-C figures: they cover
// every flight, pooled from the flights' own summaries, and when a flight
// carries none (replayed from a journal written before flights recorded
// one) the figures name how many are missing instead of covering the
// rest.
func TestResourceLineScope(t *testing.T) {
	flight := func(cpu float64) scenario.Result {
		return scenario.Result{Landed: true, LandingError: 0.5, MaxGPSDrift: 1.5,
			Resources: &scenario.Resources{MeanCPU: cpu, MeanMemMB: 2350, PeakMemMB: 2351}}
	}
	all := scenario.Summarize("MLS-V3", []scenario.Result{flight(290), flight(300)})
	got := stdout(t, func() { printFigures(all) })
	for _, want := range []string{
		"  mean landing error: 0.50 m",
		"  mean max GPS drift: 1.50 m",
		"  mean CPU 295% aggregate, mean RAM 2.35 GB",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("every flight summarized: %q lacks %q", got, want)
		}
	}

	old := flight(300)
	old.Resources = nil
	partial := scenario.Summarize("MLS-V3", []scenario.Result{flight(290), old, flight(300)})
	got = stdout(t, func() { printFigures(partial) })
	if !strings.Contains(got, "1 of 3 flights carry no resource summary") || strings.Contains(got, "mean CPU") {
		t.Errorf("a flight without a summary: %q, want the missing count and no figure", got)
	}
}

// TestFigureFlagsRefuseRemotePaths: -resources and -csv re-fly flight 0
// against the campaign's own Results, which only a local run has; with
// -merge, -join or -serve they are refused (exit 2) instead of ignored.
func TestFigureFlagsRefuseRemotePaths(t *testing.T) {
	remote := map[string]*cliutil.CampaignFlags{
		"-merge": {Merge: true},
		"-join":  {Join: "http://127.0.0.1:9"},
		"-serve": {Serve: "127.0.0.1:0"},
	}
	for name, cf := range remote {
		if err := figureFlags(cf, true, ""); err == nil {
			t.Errorf("%s -resources accepted", name)
		}
		if err := figureFlags(cf, false, "g.csv"); err == nil {
			t.Errorf("%s -csv accepted", name)
		}
		if err := figureFlags(cf, false, ""); err != nil {
			t.Errorf("%s without figure flags refused: %v", name, err)
		}
	}
	if err := figureFlags(&cliutil.CampaignFlags{}, true, "g.csv"); err != nil {
		t.Errorf("local run refused: %v", err)
	}
}
