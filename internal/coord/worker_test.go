package coord

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// The worker-side suite: one pull loop per engine slot, prompt exit once
// the campaign completes, and lease journals that outlive anything short
// of an acknowledged final upload. Runs are real V1 missions (a few
// dozen ms each), with the engine wrapped where a test must hold a lease
// mid-flight.

// TestWorkerSlotsFlyLeasesAtOnce: a 2-slot worker holds two leases at
// once, each flown by its own one-worker engine.
func TestWorkerSlotsFlyLeasesAtOnce(t *testing.T) {
	spec := rejectSpec(2) // 4 runs
	c, srv := newTestCoordinator(t, Config{Spec: spec, MinLease: 2, MaxLease: 2})
	direct, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		flying int
		held   Status
	)
	both := make(chan struct{})
	exec := func(ctx context.Context, sub campaign.Spec, opts campaign.Options) (*campaign.Report, error) {
		if opts.Workers != 1 {
			return nil, fmt.Errorf("a slot's engine runs %d workers, want 1", opts.Workers)
		}
		mu.Lock()
		if flying++; flying == 2 {
			held = c.Status()
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return campaign.Execute(ctx, sub, opts)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := Work(ctx, WorkerOptions{
		Addr: srv.URL, Name: "w", EngineWorkers: 2, PollInterval: 20 * time.Millisecond, executeFn: exec,
	}); err != nil {
		t.Fatalf("worker: %v (the second slot never held a lease?)", err)
	}
	if held.Workers != 1 || len(held.WorkersDetail) != 1 || held.WorkersDetail[0].ActiveLeases != 2 {
		t.Fatalf("status with both slots flying: %d workers, detail %+v; want 1 worker holding 2 leases",
			held.Workers, held.WorkersDetail)
	}
	if got, want := c.Digest(), direct.Digest(); got != want {
		t.Fatalf("two-slot digest %s != direct digest %s", got, want)
	}
}

// TestWorkerExitsWhenCampaignCompletes: the campaign is one lease, so one
// slot flies it while the other waits out a 204 poll of a minute. The
// slot that hears 410 wakes its sibling, and Work returns at once.
func TestWorkerExitsWhenCampaignCompletes(t *testing.T) {
	c, srv := newTestCoordinator(t, Config{Spec: rejectSpec(2), MinLease: 4, MaxLease: 4})
	completed := make(chan time.Time, 1)
	go func() {
		<-c.Done()
		completed <- time.Now()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := Work(ctx, WorkerOptions{
		Addr: srv.URL, Name: "w", EngineWorkers: 2, PollInterval: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	returned := time.Now()
	select {
	case at := <-completed:
		if d := returned.Sub(at); d > time.Second {
			t.Fatalf("Work returned %v after the campaign completed, want under 1s", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Work returned but the campaign is not complete")
	}
}

// TestWorkerKeepsJournalUntilAcknowledged stops a 2-slot worker while
// both slots are mid-lease, each with one run journaled. Both journals
// must survive, and the same worker restarted on the same directory must
// resume them when the coordinator hands the expired ranges back.
func TestWorkerKeepsJournalUntilAcknowledged(t *testing.T) {
	spec := rejectSpec(2) // 4 runs: leases [0,2) and [2,4)
	c, srv := newTestCoordinator(t, Config{Spec: spec, LeaseTTL: time.Second, MinLease: 2, MaxLease: 2})
	direct, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var (
		mu  sync.Mutex
		log []string
	)
	opts := WorkerOptions{
		Addr: srv.URL, Name: "w", EngineWorkers: 2, CheckpointDir: dir, PollInterval: 20 * time.Millisecond,
		Log: func(format string, args ...any) {
			mu.Lock()
			log = append(log, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}

	// First life: each slot flies one run of its lease, then holds the
	// lease until the worker is stopped.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var journaled sync.WaitGroup
	journaled.Add(2)
	go func() {
		journaled.Wait()
		stop()
	}()
	first := opts
	first.executeFn = func(ctx context.Context, sub campaign.Spec, o campaign.Options) (*campaign.Report, error) {
		deliver := o.OnResult
		o.OnResult = func(ru campaign.Run, r scenario.Result) {
			deliver(ru, r)
			journaled.Done()
			<-ctx.Done()
		}
		return campaign.Execute(ctx, sub, o)
	}
	if _, err := Work(ctx, first); !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped worker: err = %v, want context canceled", err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "lease-*.journal"))
	if len(left) != 2 {
		t.Fatalf("a stopped worker left %d lease journals, want both: %v", len(left), left)
	}

	// Second life: once the first life's leases expire, the same ranges
	// come back and both journals resume.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := Work(ctx2, opts); err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for _, line := range log {
		if strings.Contains(line, ": journal ") && strings.HasSuffix(line, "resumes 1/2 runs") {
			resumed++
		}
	}
	if resumed != 2 {
		t.Fatalf("restarted worker resumed %d journals, want 2; log:\n%s", resumed, strings.Join(log, "\n"))
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "lease-*.journal")); len(left) != 0 {
		t.Fatalf("acknowledged leases left journals behind: %v", left)
	}
	if got, want := c.Digest(), direct.Digest(); got != want {
		t.Fatalf("resumed digest %s != direct digest %s", got, want)
	}
}
