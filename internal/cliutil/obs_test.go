package cliutil

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scenario"
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

// runTraced executes spec through the tools' local path with -trace
// armed (and -checkpoint, when journal is set) and returns the file bytes.
func runTraced(t *testing.T, spec campaign.Spec, workers int, journal string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f := &CampaignFlags{Trace: path, Workers: workers, Checkpoint: journal}
	f.Execute("test", spec, campaign.Options{Workers: workers})
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

// traceBlocks splits a -trace file into each run's raw event lines,
// keyed by run index.
func traceBlocks(t *testing.T, data []byte) map[int][]string {
	t.Helper()
	blocks := map[int][]string{}
	run := -1
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var hdr obs.RunHeader
		if err := json.Unmarshal([]byte(line), &hdr); err != nil {
			t.Fatal(err)
		}
		if hdr.Kind == "run" {
			run = hdr.Run
			blocks[run] = []string{}
			continue
		}
		blocks[run] = append(blocks[run], line)
	}
	return blocks
}

// TestReflownRunIsTheRun: campaign.Refly flies a campaign's run again,
// and what it flies is that run. For sil V3 inline, hil-maxn -pipeline,
// field -faults blackout and sil -fleet 3, at one and two workers, the
// re-flown Result digests as the campaign's Result for that index, and
// its flight recorder holds exactly the events -trace wrote in that
// run's block. A digest the run does not have is refused.
func TestReflownRunIsTheRun(t *testing.T) {
	blackout, err := fault.ParsePlan("blackout")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		c     *catalog.Campaign
		grid  catalog.Grid
		knobs catalog.Knobs
	}{
		{"sil-v3", catalog.SIL, catalog.Grid{Maps: 1, Scenarios: 2, Repeats: 1, Systems: "3"}, catalog.Knobs{}},
		{"hil-maxn-pipeline", catalog.HILMAXN, catalog.Grid{Maps: 1, Scenarios: 2, Repeats: 1}, catalog.Knobs{Pipeline: true}},
		{"field-blackout", catalog.Field, catalog.Grid{Runs: 3}, catalog.Knobs{Faults: blackout}},
		{"sil-fleet3", catalog.SIL, catalog.Grid{Maps: 1, Scenarios: 2, Repeats: 1, Systems: "1"},
			catalog.Knobs{Fleet: &scenario.FleetSpec{Size: 3}}},
	}
	for _, tc := range cases {
		spec, err := tc.c.Spec(tc.grid, tc.knobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			f := &CampaignFlags{Trace: path, Workers: workers}
			report := f.Execute("test", spec, campaign.Options{Workers: workers})
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			blocks := traceBlocks(t, data)
			for i, want := range report.Results {
				tr := obs.NewTrace(DefaultTraceCap)
				got, err := campaign.Refly(spec, i, want.Digest(), tr)
				if err != nil {
					t.Fatalf("%s at %d workers: %v", tc.name, workers, err)
				}
				if got.Digest() != want.Digest() {
					t.Fatalf("%s at %d workers: run %d re-flew as %s, the campaign has %s",
						tc.name, workers, i, got.Digest(), want.Digest())
				}
				var lines []string
				for _, ev := range tr.Events() {
					line, err := json.Marshal(ev)
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, string(line))
				}
				if !reflect.DeepEqual(lines, blocks[i]) || len(lines) == 0 {
					t.Fatalf("%s at %d workers: run %d re-flew %d events, -trace wrote %d",
						tc.name, workers, i, len(lines), len(blocks[i]))
				}
			}
		}
		if _, err := campaign.Refly(spec, 0, "not-the-digest", nil); err == nil {
			t.Fatalf("%s: Refly accepted a digest the run does not have", tc.name)
		}
	}
}

// TestFaultTimeline: the timeline is the fault edges of the first run
// whose Result shows an injection, read from that run re-flown — the
// primary drone's only — and nil for a campaign no fault reached.
func TestFaultTimeline(t *testing.T) {
	spec := traceSpec(t)
	data := runTraced(t, spec, 2, "")
	report, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for i, r := range report.Results {
		if r.FaultInjections > 0 {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no run saw a fault; the test pins nothing")
	}
	var want []string
	for _, line := range traceBlocks(t, data)[first] {
		if strings.Contains(line, `"kind":"fault"`) {
			want = append(want, line)
		}
	}
	timeline, err := FaultTimeline(spec, report.Results)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range timeline {
		line, _ := json.Marshal(ev)
		got = append(got, string(line))
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("timeline %v, want run %d's fault edges %v", got, first, want)
	}

	nominal := testSpec()
	report, err = campaign.Execute(context.Background(), nominal, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if timeline, err := FaultTimeline(nominal, report.Results); err != nil || timeline != nil {
		t.Fatalf("nominal campaign: timeline %v, err %v", timeline, err)
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
