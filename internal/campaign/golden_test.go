package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Determinism golden: the PR 2 performance layer was verified by hashing a
// 48-run sweep spanning V1/V2/V3 x 4 maps x 2 scenarios x 2 reps against
// the PR 1 engine. This file commits that oracle to the repository: the
// sweep's aggregate digest and its per-run result digest chain live in
// testdata/golden_sweep_digest.txt, and this tier-1 test fails the moment
// a PipelineOff campaign drifts from them by a single bit — whatever layer
// (runner refactors, spatial index, cache, codec, aggregation) caused it.
//
// Regenerate (after an *intentional* semantic change, never to paper over
// a diff you can't explain):
//
//	GOLDEN_UPDATE=1 go test ./internal/campaign -run TestGoldenSweepDigest

const goldenPath = "testdata/golden_sweep_digest.txt"

// TestGoldenSweepDigest executes the sweep (GoldenGridSpec, shared with
// the fast-mode A/B verification in verifyfast.go) and compares both
// digests against the committed golden file.
func TestGoldenSweepDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("48 full closed-loop missions")
	}
	spec := GoldenGridSpec()
	rep, err := Execute(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 48 {
		t.Fatalf("sweep ran %d runs, want 48", len(rep.Results))
	}

	h := sha256.New()
	for _, r := range rep.Results {
		fmt.Fprintln(h, r.Digest())
	}
	gotResults := hex.EncodeToString(h.Sum(nil))
	gotAggregates := rep.Digest()
	content := fmt.Sprintf("aggregates %s\nresults %s\n", gotAggregates, gotResults)

	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated:\n%s", content)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (%v) — generate with GOLDEN_UPDATE=1", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden file: malformed line %q", line)
		}
		want[k] = v
	}
	if gotAggregates != want["aggregates"] {
		t.Errorf("PipelineOff aggregate digest drifted from golden\n got: %s\nwant: %s",
			gotAggregates, want["aggregates"])
	}
	if gotResults != want["results"] {
		t.Errorf("PipelineOff per-run digest chain drifted from golden\n got: %s\nwant: %s",
			gotResults, want["results"])
	}
}

// TestPipelinedCampaignDeterministic is the campaign-level acceptance
// check for PipelineOn: same spec + same k must digest identically across
// worker counts and repeated executions (tick-stamped delivery makes the
// stage's concurrency invisible to the bits).
func TestPipelinedCampaignDeterministic(t *testing.T) {
	timing := scenario.SILTiming()
	timing.Pipeline = scenario.PipelineOn
	timing.PipelineLatencyTicks = 2
	spec := Spec{
		Maps:        []int{2},
		Scenarios:   []int{4},
		Repeats:     2,
		Generations: []core.Generation{core.V3},
		Timing:      timing,
	}
	var digest string
	for _, workers := range []int{1, 4} {
		rep, err := Execute(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if digest == "" {
			digest = rep.Digest()
			continue
		}
		if got := rep.Digest(); got != digest {
			t.Fatalf("pipelined campaign digest depends on worker count: %s vs %s", digest, got)
		}
	}
}

// TestPipelineTravelsTheWireFormats pins the tentpole's distribution
// guarantee: the pipeline knob rides Timing through the lease wire format
// and the checkpoint-journal signature, so a lease executes with the same
// runner configuration as its campaign and a journal refuses to resume a
// campaign whose pipeline setting changed.
func TestPipelineTravelsTheWireFormats(t *testing.T) {
	timing := scenario.SILTiming()
	timing.Pipeline = scenario.PipelineOn
	timing.PipelineLatencyTicks = 5
	spec := Spec{
		Maps:        []int{0, 1},
		Scenarios:   []int{0},
		Repeats:     2,
		Generations: []core.Generation{core.V3},
		Timing:      timing,
	}

	sub, _ := shipRuns(t, leaseRanges(t, spec, 2)[1], spec.Timing)
	if sub.Timing.Pipeline != scenario.PipelineOn || sub.Timing.PipelineLatencyTicks != 5 {
		t.Fatalf("lease spec lost the pipeline profile: %+v", sub.Timing)
	}

	off := spec
	off.Timing.Pipeline = scenario.PipelineOff
	off.Timing.PipelineLatencyTicks = 0
	sigOn, err := spec.Signature()
	if err != nil {
		t.Fatal(err)
	}
	sigOff, err := off.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if sigOn == sigOff {
		t.Fatal("spec signature ignores the pipeline profile; journals could resume across runner modes")
	}

	path := filepath.Join(t.TempDir(), "journal")
	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, off); err == nil {
		t.Fatal("journal for a pipelined campaign resumed with the pipeline off")
	}

	// Backward compatibility: the zero (PipelineOff) knobs must stay out
	// of Timing's JSON entirely, so journals and result files recorded
	// before the pipeline existed keep matching their campaign signature.
	b, err := json.Marshal(off.Timing)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Pipeline") {
		t.Fatalf("PipelineOff timing leaks pipeline fields into the wire encoding: %s", b)
	}
}
