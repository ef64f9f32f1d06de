package main

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// TestRegistryDeltaFromALiveDump flies one mission between two snapshots
// of the live registry and checks the deltas the benchmark reads.
func TestRegistryDeltaFromALiveDump(t *testing.T) {
	spec := campaign.Spec{
		Maps: []int{0}, Scenarios: []int{0},
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming().WithFast(),
	}
	before, err := readRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	after, err := readRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"campaign_runs_started_total":   1,
		"campaign_runs_finished_total":  1,
		"scenario_pipeline_runs_total":  1,
		"scenario_planstage_runs_total": 1,
	} {
		if got := after.delta(before, series); got != want {
			t.Errorf("%s moved by %v, want %v", series, got, want)
		}
	}
	acquires := after.delta(before, "worldgen_cache_hits_total") + after.delta(before, "worldgen_cache_misses_total")
	if acquires != 1 {
		t.Errorf("world cache saw %v acquires, want 1", acquires)
	}
	if after.delta(before, "scenario_pipeline_stage_busy_ns_total") <= 0 {
		t.Error("a pipelined mission left the perception stage's busy time unchanged")
	}
	// Labelled series and histogram samples parse under their full names.
	if _, ok := after[`coord_upload_rejects_total{reason="decode"}`]; !ok {
		t.Error("labelled series missing from the parsed dump")
	}
	if got := after.delta(before, "scenario_mission_duration_seconds_count"); got != 1 {
		t.Errorf("mission histogram count moved by %v, want 1", got)
	}
	if got := after.delta(before, "no_such_series_total"); got != 0 {
		t.Errorf("an absent series moved by %v", got)
	}
}

func TestParseExpositionRejectsMalformedSamples(t *testing.T) {
	for _, text := range []string{"lonely_name\n", "name not-a-number\n"} {
		if _, err := parseExposition([]byte(text)); err == nil {
			t.Errorf("parseExposition(%q) accepted a malformed sample", text)
		}
	}
	r, err := parseExposition([]byte("# HELP x help text\n# TYPE x counter\nx 42\n\n"))
	if err != nil || r["x"] != 42 || len(r) != 1 {
		t.Errorf("parseExposition = %v, %v; want only x=42", r, err)
	}
}
