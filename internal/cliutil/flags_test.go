package cliutil

import (
	"context"
	"flag"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

func testSpec() campaign.Spec {
	return campaign.Spec{
		Maps:        campaign.Range(4),
		Scenarios:   campaign.Range(2),
		Repeats:     1,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
}

func parse(t *testing.T, args ...string) *CampaignFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegisterAndValidate(t *testing.T) {
	f := parse(t, "-workers", "3", "-progress", "-fast", "-pipeline", "-faults", "gps-drift@20+30")
	if f.Workers != 3 || !f.Progress || !f.Fast || !f.Pipeline {
		t.Fatalf("flags not bound: %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err := f.FaultPlan()
	if err != nil || plan == nil {
		t.Fatalf("fault plan: %v, %v", plan, err)
	}

	// Zero workers falls back to GOMAXPROCS.
	f = parse(t, "-workers", "0")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.Workers < 1 {
		t.Fatalf("workers not defaulted: %d", f.Workers)
	}

	// -checkpoint names the coordinator's journal with -serve.
	if err := parse(t, "-serve", ":9131", "-checkpoint", "coord.ckpt").Validate(); err != nil {
		t.Fatal(err)
	}

	bad := [][]string{
		{"-serve", ":9131", "-join", "http://x:9131"},
		{"-serve", ":9131", "-lease-ttl", "0"},
		{"-serve", ":9131", "-lease-ttl", "-5s"},
	}
	for _, args := range bad {
		if err := parse(t, args...).Validate(); err == nil {
			t.Errorf("Validate(%v): want error, got nil", args)
		}
	}
}

func TestFleetFlag(t *testing.T) {
	f := parse(t, "-fleet", "3:spacing=5")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	fl, err := f.FleetSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !fl.Active() || fl.Size != 3 || fl.Spacing != 5 {
		t.Fatalf("fleet spec: %+v", fl)
	}

	// Unset flag parses to no spec at all.
	fl, err = parse(t).FleetSpec()
	if err != nil || fl != nil {
		t.Fatalf("unset -fleet: %v, %v", fl, err)
	}
	if _, err := parse(t, "-fleet", "65").FleetSpec(); err == nil {
		t.Fatal("oversized fleet accepted")
	}

	// Fleets fly the exact inline engine only.
	for _, args := range [][]string{
		{"-fleet", "3", "-pipeline"},
		{"-fleet", "3", "-fast"},
	} {
		if err := parse(t, args...).Validate(); err == nil {
			t.Errorf("Validate(%v): want error, got nil", args)
		}
	}
}

// TestKnobs: the shared timing flags reach a catalog build parsed, and a
// malformed fault plan or fleet size is refused.
func TestKnobs(t *testing.T) {
	k, err := parse(t, "-pipeline", "-fast", "-faults", "gps").Knobs()
	if err != nil {
		t.Fatal(err)
	}
	if !k.Pipeline || !k.Fast || !k.Faults.Active() || k.Fleet != nil || k.PipelineLag != 0 {
		t.Fatalf("knobs: %+v", k)
	}
	if k, err = parse(t, "-fleet", "3").Knobs(); err != nil || k.Fleet.Size != 3 {
		t.Fatalf("-fleet 3: %+v, %v", k, err)
	}
	for _, args := range [][]string{{"-fleet", "0"}, {"-faults", "no-such-fault"}} {
		if _, err := parse(t, args...).Knobs(); err == nil {
			t.Errorf("Knobs(%v) accepted", args)
		}
	}
}

// TestExecuteRunsEveryHook drives the tools' local path over the whole
// spec: the spec's hook runs once per run, and the report matches a
// direct campaign.Execute.
func TestExecuteRunsEveryHook(t *testing.T) {
	spec := testSpec()
	direct, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var hooked atomic.Int64
	spec.Configure = func(campaign.Run, *worldgen.Scenario, *core.System, *scenario.RunConfig) { hooked.Add(1) }
	f := &CampaignFlags{Workers: 2}
	rep := f.Execute("test", spec, f.Options("test"))
	if got := int(hooked.Load()); got != spec.Total() || len(rep.Results) != spec.Total() {
		t.Fatalf("Configure ran %d times over %d results, want %d", got, len(rep.Results), spec.Total())
	}
	if got, want := rep.Digest(), direct.Digest(); got != want {
		t.Fatalf("Execute digest %s != direct %s", got, want)
	}
}

func TestOptionsCarriesWorkersAndProgress(t *testing.T) {
	f := parse(t, "-workers", "2")
	opts := f.Options("test")
	if opts.Workers != 2 || !opts.Ordered || opts.OnProgress != nil {
		t.Fatalf("options without -progress: %+v", opts)
	}
	f = parse(t, "-workers", "2", "-progress")
	opts = f.Options("test")
	if opts.OnProgress == nil {
		t.Fatal("options with -progress: no OnProgress callback")
	}
	// The throttled callback must tolerate being driven directly.
	opts.OnProgress(campaign.Progress{Done: 1, Total: 2})
	opts.OnProgress(campaign.Progress{Done: 2, Total: 2})
}

func TestOpenCheckpointRoundTrip(t *testing.T) {
	spec := testSpec()

	f := parse(t)
	j, err := f.OpenCheckpoint(spec)
	if err != nil || j != nil {
		t.Fatalf("unset -checkpoint: %v, %v", j, err)
	}

	path := filepath.Join(t.TempDir(), "test.ckpt")
	f = parse(t, "-checkpoint", path)
	j, err = f.OpenCheckpoint(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j == nil || j.Len() != 0 {
		t.Fatalf("fresh journal: %v", j)
	}
	j.Close()

	// Reopening binds to the same spec; a different grid must refuse.
	j, err = f.OpenCheckpoint(spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := spec
	other.Repeats = 2
	if _, err := f.OpenCheckpoint(other); err == nil {
		t.Fatal("journal accepted a different campaign")
	}

	f.CheckpointHint("test", true)  // exercises the hint path
	f.CheckpointHint("test", false) // and the silent one
}

// TestRunsSummary: the closing line reports the measured rate of the
// runs flown in this process and counts the replayed ones, and a replay
// of a complete journal says it flew nothing instead of printing a rate.
func TestRunsSummary(t *testing.T) {
	for _, tc := range []struct {
		r    campaign.Report
		want string
	}{
		{campaign.Report{Wall: 2 * time.Second, Workers: 2, Flown: 8},
			"8 runs flown in 2.0s wall (4.0 runs/s on 2 workers)"},
		{campaign.Report{Wall: time.Second, Workers: 1, Flown: 3, Replayed: 5},
			"3 runs flown in 1.0s wall (3.0 runs/s on 1 workers), 5 replayed from the checkpoint journal"},
		{campaign.Report{Wall: time.Millisecond, Replayed: 8},
			"no run flown, 8 replayed from the checkpoint journal"},
	} {
		if got := RunsSummary(&tc.r); got != tc.want {
			t.Errorf("RunsSummary(%+v) = %q, want %q", tc.r, got, tc.want)
		}
	}
}
