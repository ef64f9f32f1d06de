package campaign

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// leaseWire is the part of a coordinator lease a worker flies from: the
// resolved runs, canonical indices and seeds by value, and the canonical
// timing profile.
type leaseWire struct {
	Runs   []Run           `json:"runs"`
	Timing scenario.Timing `json:"timing"`
}

// shipRuns sends runs through the lease wire format (a JSON round trip)
// and rebuilds the executable sub-spec with RunsSpec, as a worker does.
// It returns the decoded runs too, for mapping sub-spec results back to
// canonical indices.
func shipRuns(t *testing.T, runs []Run, timing scenario.Timing) (Spec, []Run) {
	t.Helper()
	b, err := json.Marshal(leaseWire{Runs: runs, Timing: timing.Canonical()})
	if err != nil {
		t.Fatal(err)
	}
	var got leaseWire
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	return RunsSpec(got.Runs, got.Timing), got.Runs
}

// leaseRanges cuts the campaign's canonical run order into n contiguous
// ranges, the way a coordinator leases it out.
func leaseRanges(t *testing.T, spec Spec, n int) [][]Run {
	t.Helper()
	runs, err := spec.Runs()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]Run, n)
	for i := range out {
		out[i] = runs[i*len(runs)/n : (i+1)*len(runs)/n]
	}
	return out
}

// entries turns a sub-spec report back into canonical-index RunEntries,
// the upload format.
func entries(rep *Report, runs []Run) []RunEntry {
	out := make([]RunEntry, len(rep.Results))
	for k, r := range rep.Results {
		out[k] = RunEntry{Index: runs[k].Index, Digest: r.Digest(), Result: r}
	}
	return out
}

// flySlices flies each of n slices independently from the lease wire
// format and returns every slice's uploads.
func flySlices(t *testing.T, spec Spec, n int, opts Options) [][]RunEntry {
	t.Helper()
	var out [][]RunEntry
	for i, part := range leaseRanges(t, spec, n) {
		sub, runs := shipRuns(t, part, spec.Timing)
		rep, err := Execute(context.Background(), sub, opts)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		out = append(out, entries(rep, runs))
	}
	return out
}

// mergeSlices folds the slices' uploads into a fresh Merger in the given
// arrival order and returns the complete campaign's digest.
func mergeSlices(t *testing.T, spec Spec, uploads [][]RunEntry, order []int) string {
	t.Helper()
	m, err := NewMerger(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range order {
		for _, e := range uploads[k] {
			if _, err := m.Accept(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !m.Complete() {
		t.Fatalf("order %v merged %d of %d runs", order, m.Done(), m.Total())
	}
	return m.Digest()
}

// TestMergeShardsShuffledBitIdentical is the distribution guarantee:
// slices executed independently (as a worker would, from the lease wire
// format) and merged in any arrival order produce aggregates
// bit-identical to a single uninterrupted campaign. A re-delivered slice
// folds in as duplicates.
func TestMergeShardsShuffledBitIdentical(t *testing.T) {
	spec := resumeSpec()
	want := uninterrupted(t, spec).Digest()
	uploads := flySlices(t, spec, 3, Options{Workers: 2})

	for _, perm := range [][]int{{2, 0, 1}, {1, 2, 0}, {2, 1, 0}, {0, 1, 2}, {1, 0, 1, 2}} {
		if d := mergeSlices(t, spec, uploads, perm); d != want {
			t.Fatalf("order %v: merged digest %s != uninterrupted %s", perm, d, want)
		}
	}
}

// TestShardsCarryCustomSeeds: a spec with explicit cells and a bespoke
// seed function (the field-campaign shape) ships its runs by value — the
// worker reproduces the seeds without the function.
func TestShardsCarryCustomSeeds(t *testing.T) {
	var cells []Cell
	for i := 0; i < 6; i++ {
		cells = append(cells, Cell{
			Gen:         core.V1,
			MapIdx:      []int{0, 2, 4}[i%3],
			ScenarioIdx: i % worldgen.NumScenariosPerMap,
			Rep:         i,
		})
	}
	spec := Spec{
		Cells:  cells,
		Timing: scenario.SILTiming(),
		Seed:   func(c Cell) int64 { return int64(c.Rep)*104_729 + 77 },
	}
	want := uninterrupted(t, spec).Digest()

	for i, part := range leaseRanges(t, spec, 2) {
		sub, _ := shipRuns(t, part, spec.Timing)
		subRuns, err := sub.Runs()
		if err != nil {
			t.Fatal(err)
		}
		for k, ru := range subRuns {
			if ru.Seed != part[k].Seed {
				t.Fatalf("slice %d run %d re-derives seed %d, want shipped %d", i, k, ru.Seed, part[k].Seed)
			}
		}
	}
	uploads := flySlices(t, spec, 2, Options{Workers: 2})
	if d := mergeSlices(t, spec, uploads, []int{1, 0}); d != want {
		t.Fatalf("custom-seed distributed digest %s != uninterrupted %s", d, want)
	}
}

// TestShardAndCheckpointCompose: a lease's sub-spec can itself be
// checkpointed and resumed, as a worker journals every lease — the
// distributed and crash-safe layers stack.
func TestShardAndCheckpointCompose(t *testing.T) {
	spec := resumeSpec()
	want := uninterrupted(t, spec).Digest()

	var uploads [][]RunEntry
	for _, part := range leaseRanges(t, spec, 2) {
		sub, runs := shipRuns(t, part, spec.Timing)
		path := filepath.Join(t.TempDir(), "lease.journal")
		// First attempt: cancel after one run, as a crashed worker would.
		j, err := OpenJournal(path, sub)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		_, _ = Execute(ctx, sub, Options{
			Workers:    2,
			Checkpoint: j,
			OnResult:   func(Run, scenario.Result) { cancel() },
		})
		cancel()
		j.Close()
		// Resume the lease to completion.
		j2, err := OpenJournal(path, sub)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Execute(context.Background(), sub, Options{Workers: 2, Checkpoint: j2})
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		uploads = append(uploads, entries(rep, runs))
	}
	order := []int{0, 1}
	rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if d := mergeSlices(t, spec, uploads, order); d != want {
		t.Fatalf("resumed-lease merge digest %s != uninterrupted %s", d, want)
	}
}

// TestReadShardResultValidation: the campaign result file reads back to
// the rows that were written, and a file that does not cover its whole
// campaign is refused with an error naming the file.
func TestReadShardResultValidation(t *testing.T) {
	row := func(runs int) *scenario.Aggregate {
		a := scenario.NewAggregate(core.V1.String())
		for i := 0; i < runs; i++ {
			a.Add(scenario.Result{Outcome: scenario.Success, LandingError: 0.25, Landed: true})
		}
		return a
	}
	whole := func() *ShardResult {
		return &ShardResult{Count: 1, End: 2, Total: 2, Sig: "sig",
			Aggregates: map[core.Generation]*scenario.Aggregate{core.V1: row(2)}}
	}
	dir := t.TempDir()
	write := func(name string, sr *ShardResult) string {
		path := filepath.Join(dir, name)
		if err := WriteShardResult(path, sr); err != nil {
			t.Fatal(err)
		}
		return path
	}

	ok := whole()
	got, err := ReadShardResult(write("ok.json", ok))
	if err != nil {
		t.Fatal(err)
	}
	if AggregatesDigest(got.Aggregates) != AggregatesDigest(ok.Aggregates) || got.Sig != ok.Sig {
		t.Fatalf("result file round trip changed the rows: %+v", got)
	}

	bad := map[string]func(*ShardResult){
		"partial-range": func(sr *ShardResult) { sr.End = 1 },
		"second-part":   func(sr *ShardResult) { sr.Index, sr.Count = 1, 2 },
		"two-parts":     func(sr *ShardResult) { sr.Count = 2 },
		"offset-start":  func(sr *ShardResult) { sr.Start = 1 },
		"empty":         func(sr *ShardResult) { sr.End, sr.Total, sr.Aggregates = 0, 0, nil },
		"null-row":      func(sr *ShardResult) { sr.Aggregates[core.V2] = nil },
		"short-rows":    func(sr *ShardResult) { sr.Aggregates[core.V1] = row(1) },
		"extra-rows":    func(sr *ShardResult) { sr.Aggregates[core.V2] = row(1) },
	}
	for name, edit := range bad {
		sr := whole()
		edit(sr)
		path := write(name+".json", sr)
		if _, err := ReadShardResult(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: err = %v, want a refusal naming %s", name, err, path)
		}
	}

	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte(`{"index": 0, "aggregates": {"x": {}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardResult(garbage); err == nil || !strings.Contains(err.Error(), garbage) {
		t.Errorf("malformed file: err = %v, want a refusal naming it", err)
	}
	if _, err := ReadShardResult(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing result file did not error")
	}
}
