package cliutil

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/hil"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// traceSpec is a small campaign with a fault plan, so traces carry the
// full event mix (captures, fault windows, degraded transitions).
func traceSpec(t *testing.T) campaign.Spec {
	t.Helper()
	spec := testSpec()
	spec.Timing = scenario.SILTiming()
	plan, err := (&CampaignFlags{Faults: "gps"}).FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	spec.Timing.Faults = plan
	return spec
}

// runTraced executes spec with -trace armed and returns the file bytes.
func runTraced(t *testing.T, spec campaign.Spec, workers int, journal string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f := &CampaignFlags{Trace: path, Workers: workers}
	opts := campaign.Options{Workers: workers}
	closeTrace, err := f.WireTrace(&spec, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if journal != "" {
		j, err := campaign.OpenJournal(journal, spec)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		opts.Checkpoint = j
	}
	if _, err := campaign.Execute(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTraceDeterminism pins the tentpole contract: the trace file is a
// pure function of (seed, Spec) — byte-identical at any worker count,
// and byte-identical again when the same campaign runs checkpointed from
// an empty journal. It must also pass the tracecheck invariants.
func TestTraceDeterminism(t *testing.T) {
	spec := traceSpec(t)

	seq := runTraced(t, spec, 1, "")
	if len(seq) == 0 {
		t.Fatal("sequential trace is empty")
	}
	if par := runTraced(t, spec, 4, ""); !bytes.Equal(seq, par) {
		t.Fatalf("trace differs across worker counts: %d vs %d bytes", len(seq), len(par))
	}
	journal := filepath.Join(t.TempDir(), "resume.journal")
	if chk := runTraced(t, spec, 4, journal); !bytes.Equal(seq, chk) {
		t.Fatalf("trace differs under a fresh checkpoint journal: %d vs %d bytes", len(seq), len(chk))
	}

	st, err := obs.CheckTrace(bytes.NewReader(seq), obs.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != spec.Total() || st.Violations != 0 {
		t.Fatalf("trace check: %d runs (want %d), %d violations", st.Runs, spec.Total(), st.Violations)
	}
}

// TestTraceResumeSkipsReplayedRuns pins the checkpoint semantics: runs
// replayed from the journal never re-fly, so a fully resumed campaign
// writes an empty trace file instead of fabricating events it did not
// observe.
func TestTraceResumeSkipsReplayedRuns(t *testing.T) {
	spec := traceSpec(t)
	journal := filepath.Join(t.TempDir(), "resume.journal")

	if full := runTraced(t, spec, 2, journal); len(full) == 0 {
		t.Fatal("first (live) pass wrote no trace")
	}
	resumed := runTraced(t, spec, 2, journal)
	if len(resumed) != 0 {
		t.Fatalf("fully replayed campaign wrote %d trace bytes; replays must record nothing", len(resumed))
	}
}

// TestTraceFansOutToMonitor: a tool hook that installs its own recorder
// (hil.Monitor, as hilbench and fieldtest do) and -trace both receive
// every event of every run — the monitor's fault timeline and stage
// counters match the run's block in the trace file exactly.
func TestTraceFansOutToMonitor(t *testing.T) {
	spec := traceSpec(t)
	mons := make([]*hil.Monitor, spec.Total())
	spec.Configure = func(ru campaign.Run, _ *worldgen.Scenario, _ *core.System, cfg *scenario.RunConfig) {
		mon := hil.NewMonitor(hil.DesktopSIL(), hil.NanoCosts())
		mons[ru.Index] = mon
		cfg.Observer, cfg.Recorder = mon, mon
	}
	data := runTraced(t, spec, 2, "")

	// Split the file into per-run fault and apply events.
	faults := map[int][]obs.Event{}
	applies := map[int]int{}
	run := -1
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var line struct {
			obs.Event
			Run int `json:"run"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		switch line.Kind {
		case "run":
			run = line.Run
		case "fault":
			faults[run] = append(faults[run], line.Event)
		case "apply":
			applies[run]++
		}
	}

	faulted := 0
	for i, mon := range mons {
		if mon == nil {
			t.Fatalf("run %d flew without its monitor", i)
		}
		if !reflect.DeepEqual(mon.FaultEvents(), faults[i]) {
			t.Fatalf("run %d: monitor timeline %+v, trace %+v", i, mon.FaultEvents(), faults[i])
		}
		if batches, _, _, _, _ := mon.StageStats(); batches != applies[i] || batches == 0 {
			t.Fatalf("run %d: monitor saw %d perception batches, trace %d", i, batches, applies[i])
		}
		if len(faults[i]) > 0 {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("no run recorded a fault edge; the test pins nothing")
	}
}

// TestObsFlagValidation covers the -trace flag combinations Validate
// refuses.
func TestObsFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-trace", "t.jsonl", "-serve", ":9131"},
		{"-trace", "t.jsonl", "-join", "http://x:9131"},
		{"-trace", "t.jsonl", "-merge"},
	}
	for _, args := range bad {
		f := parse(t, args...)
		if err := f.Validate(); err == nil {
			t.Fatalf("Validate(%v) accepted an invalid combination", args)
		}
	}
	f := parse(t, "-trace", "t.jsonl", "-metrics", "-", "-debug", "127.0.0.1:0")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.Trace != "t.jsonl" || f.Metrics != "-" || f.Debug != "127.0.0.1:0" {
		t.Fatalf("observability flags not bound: %+v", f)
	}
}

// TestDumpMetricsFile pins the -metrics file path: the dump is the
// Default registry's Prometheus exposition.
func TestDumpMetricsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	f := &CampaignFlags{Metrics: path}
	if err := f.DumpMetrics("test"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("# TYPE campaign_runs_started_total counter")) {
		t.Fatalf("metrics dump missing expected series:\n%.400s", data)
	}
}
