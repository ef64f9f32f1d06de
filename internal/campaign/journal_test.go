package campaign

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// resumeSpec is the grid the resume tests sweep — small enough to run
// many times, mixed enough (two weather halves, two repetitions) that
// every aggregate column is exercised.
func resumeSpec() Spec {
	return Spec{
		Maps:        Range(3),
		Scenarios:   []int{0, 5},
		Repeats:     2,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
}

// uninterrupted executes the spec once without a checkpoint, the reference
// every resumed/sharded variant must reproduce bit for bit.
func uninterrupted(t *testing.T, spec Spec) *Report {
	t.Helper()
	rep, err := Execute(context.Background(), spec, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestResumeBitIdentical is the tentpole guarantee: cancel a checkpointed
// campaign at a random number of finished runs, resume from the journal on
// disk, and the final Results and merged Aggregates are bit-identical
// (sha256) to an uninterrupted run — across many random cut points.
func TestResumeBitIdentical(t *testing.T) {
	spec := resumeSpec()
	want := uninterrupted(t, spec)
	wantDigest := want.Digest()
	n := spec.Total()

	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cut := 1 + rng.Intn(n-1) // cancel after [1, n-1] deliveries
		path := filepath.Join(t.TempDir(), "campaign.ckpt")

		// Phase 1: run with a checkpoint, cancel mid-campaign.
		j, err := OpenJournal(path, spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var delivered atomic.Int64
		_, err = Execute(ctx, spec, Options{
			Workers:    3,
			Checkpoint: j,
			OnResult: func(Run, scenario.Result) {
				if delivered.Add(1) == int64(cut) {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: cancelled campaign returned %v", seed, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		// Phase 2: reopen the journal from disk (simulating a process
		// restart) and resume to completion.
		j2, err := OpenJournal(path, spec)
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		// At least the delivered runs are durable; cancellation lets the
		// (at most workers-1) in-flight runs finish and journal too.
		persisted := j2.Len()
		if persisted < cut || persisted > n {
			t.Fatalf("seed %d: %d runs persisted after cancelling at %d of %d", seed, persisted, cut, n)
		}
		var executed atomic.Int64
		resumeSpecWithHook := spec
		resumeSpecWithHook.Configure = func(Run, *worldgen.Scenario, *core.System, *scenario.RunConfig) {
			executed.Add(1) // fires only for runs that actually fly
		}
		got, err := Execute(context.Background(), resumeSpecWithHook, Options{
			Workers:    3,
			Checkpoint: j2,
		})
		if err != nil {
			t.Fatalf("seed %d: resume: %v", seed, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}

		if int(executed.Load()) != n-persisted {
			t.Errorf("seed %d: resume executed %d runs, want %d (skipping %d journaled)",
				seed, executed.Load(), n-persisted, persisted)
		}
		if len(got.Results) != n {
			t.Fatalf("seed %d: resumed report has %d results, want %d", seed, len(got.Results), n)
		}
		for i := range want.Results {
			if !sameResult(got.Results[i], want.Results[i]) {
				t.Fatalf("seed %d: resumed result %d diverges from uninterrupted run:\n got %+v\nwant %+v",
					seed, i, got.Results[i], want.Results[i])
			}
		}
		if d := got.Digest(); d != wantDigest {
			t.Fatalf("seed %d: resumed aggregate digest %s != uninterrupted %s", seed, d, wantDigest)
		}
	}
}

// TestResumeTwice: a campaign interrupted twice still converges to the
// uninterrupted bits (the journal accretes across restarts).
func TestResumeTwice(t *testing.T) {
	spec := resumeSpec()
	want := uninterrupted(t, spec)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	for _, cut := range []int{2, 7} {
		j, err := OpenJournal(path, spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var delivered atomic.Int64
		_, err = Execute(ctx, spec, Options{
			Workers:    2,
			Checkpoint: j,
			OnResult: func(Run, scenario.Result) {
				if delivered.Add(1) == int64(cut) {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got, err := Execute(context.Background(), spec, Options{Workers: 4, Checkpoint: j})
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Fatal("twice-resumed campaign diverges from uninterrupted run")
	}
}

// TestResumeCompleteJournal: resuming a fully-complete campaign executes
// nothing and still reports the full, bit-identical outcome.
func TestResumeCompleteJournal(t *testing.T) {
	spec := resumeSpec()
	want := uninterrupted(t, spec)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(context.Background(), spec, Options{Workers: 3, Checkpoint: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != spec.Total() {
		t.Fatalf("journal has %d of %d runs", j2.Len(), spec.Total())
	}
	hooked := spec
	var executed atomic.Int64
	hooked.Configure = func(Run, *worldgen.Scenario, *core.System, *scenario.RunConfig) { executed.Add(1) }
	got, err := Execute(context.Background(), hooked, Options{Checkpoint: j2})
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Errorf("complete journal still executed %d runs", executed.Load())
	}
	if got.Digest() != want.Digest() {
		t.Fatal("fully-replayed campaign diverges from uninterrupted run")
	}
	if got.Workers != 0 || got.Flown != 0 || got.Replayed != spec.Total() {
		t.Errorf("fully-replayed campaign reports %d workers, %d flown, %d replayed; want 0, 0, %d",
			got.Workers, got.Flown, got.Replayed, spec.Total())
	}
}

// partialJournal runs a checkpointed campaign cancelled after a few runs
// and returns the journal path and how many runs were persisted.
func partialJournal(t *testing.T, spec Spec, cut int) (string, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var delivered atomic.Int64
	_, err = Execute(ctx, spec, Options{
		Workers:    2,
		Checkpoint: j,
		OnResult: func(Run, scenario.Result) {
			if delivered.Add(1) == int64(cut) {
				cancel()
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	n := j2.Len()
	j2.Close()
	return path, n
}

// TestJournalDropsTornTail: a crash mid-append leaves a truncated final
// line; Open must drop it, repair the file, and resume from the remaining
// durable prefix — the dropped run simply flies again.
func TestJournalDropsTornTail(t *testing.T) {
	spec := resumeSpec()
	want := uninterrupted(t, spec)
	path, persisted := partialJournal(t, spec, 3)

	// Crash mid-append: a torn, newline-less fragment of a valid-looking
	// entry at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":9,"d":"deadbeef","r":{"outcome":0,"dur`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatalf("torn tail was not repaired: %v", err)
	}
	if j.Len() != persisted {
		t.Fatalf("after repair journal has %d entries, want %d", j.Len(), persisted)
	}
	got, err := Execute(context.Background(), spec, Options{Workers: 3, Checkpoint: j})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got.Digest() != want.Digest() {
		t.Fatal("resume after tail repair diverges from uninterrupted run")
	}

	// The repair is durable: reopening again sees a clean file.
	j2, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != spec.Total() {
		t.Fatalf("journal has %d of %d runs after repaired resume", j2.Len(), spec.Total())
	}
}

// TestJournalDropsUnterminatedFinalEntry: a final line that parses but
// lacks its newline was never durably committed — it must be dropped too.
func TestJournalDropsUnterminatedFinalEntry(t *testing.T) {
	spec := resumeSpec()
	path, persisted := partialJournal(t, spec, 3)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("journal does not end with a newline")
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != persisted-1 {
		t.Fatalf("journal has %d entries, want %d (unterminated final entry dropped)", j.Len(), persisted-1)
	}
}

// TestJournalRejectsMidFileCorruption: damage before the final line cannot
// be a torn append, so Open must refuse rather than silently resume.
func TestJournalRejectsMidFileCorruption(t *testing.T) {
	spec := resumeSpec()
	path, persisted := partialJournal(t, spec, 3)
	if persisted < 2 {
		t.Skipf("need >= 2 persisted runs, got %d", persisted)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Corrupt the first entry (line 1; line 0 is the header) into
	// syntactically invalid JSON.
	lines[1] = strings.Replace(lines[1], `{"i":`, `{"i":x`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, spec); err == nil {
		t.Fatal("mid-file corruption did not refuse the resume")
	}
}

// TestJournalDigestGuardsEntries: an entry whose result bytes were altered
// (bit rot, manual edit) fails its digest check.
func TestJournalDigestGuardsEntries(t *testing.T) {
	spec := resumeSpec()
	path, persisted := partialJournal(t, spec, 3)
	if persisted < 2 {
		t.Skipf("need >= 2 persisted runs, got %d", persisted)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a result field of the first entry, leaving valid JSON.
	tampered := strings.Replace(string(data), `"marker_visible_frames":`, `"marker_visible_frames":1`, 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, spec); err == nil {
		t.Fatal("tampered entry passed the digest check")
	}
}

// TestJournalSpecBinding: a journal resumes only the campaign it recorded.
func TestJournalSpecBinding(t *testing.T) {
	spec := resumeSpec()
	path, _ := partialJournal(t, spec, 2)

	other := spec
	other.Repeats = 3 // different grid
	if _, err := OpenJournal(path, other); err == nil {
		t.Fatal("journal opened for a different campaign")
	}

	// Same grid, different timing: also a different campaign.
	timed := spec
	timed.Timing.DetectPeriod *= 2
	if _, err := OpenJournal(path, timed); err == nil {
		t.Fatal("journal opened for a different timing profile")
	}

	// Execute cross-checks too: a journal opened for spec A cannot drive
	// spec B even if handed over directly.
	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := Execute(context.Background(), other, Options{Checkpoint: j}); err == nil {
		t.Fatal("Execute accepted a journal bound to a different spec")
	}
}

// TestJournalTornHeader: a crash during the very first write leaves a
// partial header and no durable entries; Open starts the journal over.
func TestJournalTornHeader(t *testing.T) {
	spec := resumeSpec()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	if err := os.WriteFile(path, []byte(`{"v":1,"spec":"abc`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatalf("torn header was not recovered: %v", err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Fatalf("fresh journal has %d entries", j.Len())
	}
}

// TestJournalTornHeaderParseable: the header can tear after its complete
// JSON but before the newline. The repair must rewrite it rather than
// "truncate up to the newline" — which would extend the file with a NUL
// byte and poison every later reopen.
func TestJournalTornHeaderParseable(t *testing.T) {
	spec := resumeSpec()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	// Write a journal normally, then shear off just the header newline.
	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatalf("newline-less header was not recovered: %v", err)
	}
	runs, err := spec.Runs()
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.RunGridCell(runs[0].Gen, runs[0].MapIdx, runs[0].ScenarioIdx,
		runs[0].Seed, spec.Timing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(runs[0], r); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	// The file must be cleanly parseable again — no embedded NUL bytes.
	j3, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatalf("journal unreadable after torn-header repair + append: %v", err)
	}
	defer j3.Close()
	if j3.Len() != 1 {
		t.Fatalf("journal has %d entries after repair, want 1", j3.Len())
	}
}
