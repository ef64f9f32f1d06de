package coord

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
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
// one rigged to die mid-lease without uploading; the lease expires,
// re-dispatches, and the merged digest still equals the direct run's.
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
	// dies after one run with its results journaled but never uploaded.
	chaosDir := t.TempDir()
	_, err = Work(ctx, WorkerOptions{
		Addr: srv.URL, Name: "chaos", CheckpointDir: chaosDir,
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
	sh := c.ShardResult()
	if sh.Total != spec.Total() || sh.Sig != c.merger.Sig() {
		t.Fatalf("shard result %+v inconsistent with campaign", sh)
	}
	// The -out artifact round-trips through the reader -merge uses.
	path := filepath.Join(t.TempDir(), "result.json")
	if err := campaign.WriteShardResult(path, sh); err != nil {
		t.Fatal(err)
	}
	res, err := campaign.ReadShardResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := campaign.AggregatesDigest(res.Aggregates); d != direct.Digest() {
		t.Fatalf("result file digest %s != direct %s", d, direct.Digest())
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
