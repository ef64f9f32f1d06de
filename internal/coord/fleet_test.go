package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
)

// The loopback suite runs the real distributed stack — coordinator and
// workers in one process over 127.0.0.1, real engine, real HTTP — and
// holds it to the repo's core invariant: a fleet-merged campaign is
// bit-identical to an uninterrupted single-machine run, even with a
// worker killed mid-lease. These tests fly full closed-loop missions, so
// they are trimmed out of -short CI (the loopback smoke job covers the
// path there).

// TestLoopbackFleetDigestIdentity is the at-least-once proof: 4 workers,
// one (of two slots) rigged to die mid-lease without uploading; its
// leases expire, re-dispatch, and the merged digest still equals the
// direct run's.
func TestLoopbackFleetDigestIdentity(t *testing.T) {
	spec := campaign.Spec{
		Maps:        campaign.Range(3),
		Scenarios:   []int{0, 5},
		Repeats:     2,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
	direct, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 4, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(Config{
		Spec:     spec,
		LeaseTTL: time.Second,
		MaxLease: 4, // several leases, so losing one matters
		Log:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The chaos worker goes first, alone, so it is guaranteed a lease; it
	// dies after one run over both its slots, with its results journaled
	// but never uploaded.
	chaosDir := t.TempDir()
	_, err = Work(ctx, WorkerOptions{
		Addr: srv.URL, Name: "chaos", EngineWorkers: 2, CheckpointDir: chaosDir,
		PollInterval: 20 * time.Millisecond, FlushEvery: 64, DieAfterRuns: 1,
	})
	if !errors.Is(err, errChaosDeath) {
		t.Fatalf("chaos worker: err = %v, want chaos death", err)
	}
	if left, _ := filepath.Glob(filepath.Join(chaosDir, "lease-*.journal")); len(left) == 0 {
		t.Fatal("dead worker should leave its lease journal behind")
	}

	// Three survivors drain the campaign, re-flying the lost range once
	// the coordinator expires the dead worker's lease.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Work(ctx, WorkerOptions{
				Addr: srv.URL, Name: []string{"w0", "w1", "w2"}[i],
				CheckpointDir: t.TempDir(),
				PollInterval:  20 * time.Millisecond, FlushEvery: 2,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	select {
	case <-c.Done():
	default:
		t.Fatal("workers exited but the campaign is not complete")
	}
	st := c.Status()
	if st.Expired < 1 {
		t.Fatalf("expected the chaos worker's lease to expire, status %+v", st)
	}
	if got, want := c.Digest(), direct.Digest(); got != want {
		t.Fatalf("fleet digest %s != direct digest %s", got, want)
	}
}

// TestLoopbackCoordinatorRestart is the coordinator's crash-safety proof.
// Coordinator A journals what it merges; a worker uploads k−1 runs one at
// a time and dies on the k-th; A stops. Coordinator B, on the reopened
// journal, starts with those runs merged and only the rest pending —
// without counting them toward its own throughput — and fresh workers
// drain it to the direct run's digest. A journal that holds every run is
// done at construction, and one opened for another Spec is refused.
func TestLoopbackCoordinatorRestart(t *testing.T) {
	spec := campaign.Spec{
		Maps:        campaign.Range(2),
		Scenarios:   []int{0, 5},
		Repeats:     2,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
	direct, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 2, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "coord.ckpt")
	serve := func() (*Coordinator, *httptest.Server, *campaign.Journal) {
		t.Helper()
		j, err := campaign.OpenJournal(path, spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator(Config{Spec: spec, LeaseTTL: 10 * time.Second, Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		return c, httptest.NewServer(c.Handler()), j
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// A: one-run uploads, so runs 0..k-2 merge (the second lease only in
	// part) and run k-1 dies unsent.
	const k = 4
	a, srvA, ja := serve()
	_, err = Work(ctx, WorkerOptions{
		Addr: srvA.URL, Name: "doomed", PollInterval: 20 * time.Millisecond,
		FlushEvery: 1, DieAfterRuns: k,
	})
	if !errors.Is(err, errChaosDeath) {
		t.Fatalf("doomed worker: err = %v, want chaos death", err)
	}
	if st := a.Status(); st.Done != k-1 {
		t.Fatalf("coordinator A merged %d runs, want %d", st.Done, k-1)
	}
	srvA.Close()
	ja.Close()

	b, srvB, jb := serve()
	st := b.Status()
	if st.Done != k-1 || st.Pending != st.Total-(k-1) || st.Complete {
		t.Fatalf("restarted coordinator: done %d, pending %d of %d; want %d done, %d pending",
			st.Done, st.Pending, st.Total, k-1, st.Total-(k-1))
	}
	if st.RunsPerSec != 0 || st.ETASeconds != 0 {
		t.Fatalf("replayed runs counted as this process's throughput: %.1f runs/s, ETA %.1fs", st.RunsPerSec, st.ETASeconds)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Work(ctx, WorkerOptions{
				Addr: srvB.URL, Name: []string{"w0", "w1"}[i], PollInterval: 20 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("workers exited but the restarted campaign is not complete")
	}
	if got, want := b.Digest(), direct.Digest(); got != want {
		t.Fatalf("restarted coordinator digest %s != direct digest %s", got, want)
	}
	srvB.Close()
	jb.Close()

	// The journal now holds every run: done before any worker asks.
	c, srvC, jc := serve()
	defer srvC.Close()
	defer jc.Close()
	select {
	case <-c.Done():
	default:
		t.Fatal("a complete journal did not finish the campaign at construction")
	}
	if c.Digest() != direct.Digest() {
		t.Fatalf("complete journal digest %s != direct digest %s", c.Digest(), direct.Digest())
	}
	body, _ := json.Marshal(LeaseRequest{Worker: "late"})
	resp, err := http.Post(srvC.URL+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("first lease request on a complete journal: %s, want 410", resp.Status)
	}

	other := spec
	other.Repeats = 1
	jo, err := campaign.OpenJournal(filepath.Join(t.TempDir(), "other.ckpt"), other)
	if err != nil {
		t.Fatal(err)
	}
	defer jo.Close()
	if _, err := NewCoordinator(Config{Spec: spec, Journal: jo}); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("journal of another campaign: err = %v, want a refusal", err)
	}
}

// TestLoopbackTimingKnobs splits a `-faults gps` and a `-fleet 3` V1
// campaign into one-run leases: each knob rides the lease's Timing to the
// worker, and the merged digest equals a direct run's.
func TestLoopbackTimingKnobs(t *testing.T) {
	gps, err := fault.ParsePlan("gps")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := scenario.ParseFleet("3")
	if err != nil {
		t.Fatal(err)
	}
	grid := catalog.Grid{Maps: 1, Scenarios: 2, Repeats: 1, Systems: "1"}
	for name, knobs := range map[string]catalog.Knobs{
		"faults-gps": {Faults: gps},
		"fleet-3":    {Fleet: fleet},
	} {
		t.Run(name, func(t *testing.T) {
			spec, err := catalog.SIL.Spec(grid, knobs)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 2, Ordered: true})
			if err != nil {
				t.Fatal(err)
			}

			c, err := NewCoordinator(Config{Spec: spec, LeaseTTL: 10 * time.Second, MaxLease: 1})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			if _, err := Work(ctx, WorkerOptions{
				Addr: srv.URL, Name: "w0", EngineWorkers: 2, PollInterval: 20 * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}

			if st := c.Status(); st.Leases != spec.Total() {
				t.Fatalf("campaign of %d runs flew in %d leases, want one per run", spec.Total(), st.Leases)
			}
			if got, want := c.Digest(), direct.Digest(); got != want {
				t.Fatalf("%s fleet digest %s != direct digest %s", name, got, want)
			}
		})
	}
}

// TestLoopbackFleetProfile round-trips every catalog campaign over the
// lease path: the coordinator ships only the campaign's profile name, the
// worker rebuilds the same Configure hook a local run of the tool installs
// (HIL cadences; field's weather floors and spurious-depth rate), and the
// digests agree.
func TestLoopbackFleetProfile(t *testing.T) {
	grid := catalog.Grid{Maps: 1, Scenarios: 2, Repeats: 1, Systems: "1", Runs: 2}
	for _, name := range catalog.Names() {
		t.Run(name, func(t *testing.T) {
			c, err := catalog.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := c.Spec(grid, catalog.Knobs{})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 2, Ordered: true})
			if err != nil {
				t.Fatal(err)
			}

			coordinator, err := NewCoordinator(Config{Spec: spec, Profile: c.Profile(), LeaseTTL: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(coordinator.Handler())
			defer srv.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			if _, err := Work(ctx, WorkerOptions{
				Addr: srv.URL, Name: "w0", EngineWorkers: 2, PollInterval: 20 * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}

			if got, want := coordinator.Digest(), direct.Digest(); got != want {
				t.Fatalf("profile %q fleet digest %s != direct digest %s", c.Profile(), got, want)
			}
		})
	}
}
