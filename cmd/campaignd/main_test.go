package main

import (
	"flag"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/scenario"
)

// parseFlags registers the shared campaign flags on a fresh set and
// parses args into them.
func parseFlags(t *testing.T, args ...string) *cliutil.CampaignFlags {
	t.Helper()
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	cf := cliutil.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := cf.Validate(); err != nil {
		t.Fatal(err)
	}
	return cf
}

// TestBuildSpecTiming: -fleet and -faults must reach the Timing of every
// tool's campaign, canonicalized like the bench tools do it — otherwise
// the coordinator dispatches a solo (or nominal) campaign under the flag,
// or signs a size-1 fleet differently from a run without one.
func TestBuildSpecTiming(t *testing.T) {
	cases := []struct {
		args      []string
		fleet     *scenario.FleetSpec
		faultPlan bool
	}{
		{args: []string{"-fleet", "3:spacing=8"}, fleet: &scenario.FleetSpec{Size: 3, Spacing: 8}},
		{args: []string{"-fleet", "1", "-faults", "gps"}, faultPlan: true},
		{args: []string{"-faults", ""}},
	}
	for _, c := range cases {
		cf := parseFlags(t, c.args...)
		for _, tool := range []string{"sil", "hil-maxn", "hil-5w", "field"} {
			spec, _, err := buildSpec(cf, tool, 1, 1, 1, "1", 2, 1)
			if err != nil {
				t.Fatalf("%s %v: %v", tool, c.args, err)
			}
			got := spec.Timing
			if (got.Fleet == nil) != (c.fleet == nil) || (got.Fleet != nil && *got.Fleet != *c.fleet) {
				t.Fatalf("%s %v: Timing.Fleet = %v, want %v", tool, c.args, got.Fleet, c.fleet)
			}
			if got.Faults.Active() != c.faultPlan || (!c.faultPlan && got.Faults != nil) {
				t.Fatalf("%s %v: Timing.Faults = %v, want active=%v", tool, c.args, got.Faults, c.faultPlan)
			}
		}
	}
}

// TestBuildSpecRejects covers the argument errors.
func TestBuildSpecRejects(t *testing.T) {
	cf := parseFlags(t)
	for _, c := range []struct {
		tool      string
		maps      int
		gens      string
		fieldRuns int
	}{
		{"sil", 0, "1", 1},
		{"sil", 1, "x", 1},
		{"field", 1, "1", 0},
		{"nope", 1, "1", 1},
	} {
		if _, _, err := buildSpec(cf, c.tool, c.maps, 1, 1, c.gens, c.fieldRuns, 1); err == nil {
			t.Errorf("%+v: accepted", c)
		}
	}
	bad := parseFlags(t, "-fleet", "0")
	if _, _, err := buildSpec(bad, "sil", 1, 1, 1, "1", 1, 1); err == nil {
		t.Error("-fleet 0 accepted")
	}
}
