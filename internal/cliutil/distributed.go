package cliutil

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Distributed-campaign entry points: every bench tool gains a fleet mode
// through the same two flags. `-serve :9131` turns the tool into the
// campaign's coordinator — the spec it would have executed locally is
// dispatched to pulling workers instead — and `-join http://host:9131`
// turns it into a worker for whatever campaign that coordinator owns.
// With -checkpoint the coordinator journals every run it merges: rerun
// the same -serve command to resume, or the local command with the same
// grid flags to print the campaign again from the journal.

// shutdownLinger is how long a finished coordinator keeps answering
// before exiting, so workers polling at their usual cadence receive the
// 410 completion signal and exit 0 instead of dying on a connection
// error.
const shutdownLinger = 3 * time.Second

// Distributed dispatches -serve/-join if either is set. It returns
// handled=false when neither is set (the tool runs locally as always).
// In serve mode it returns the merged aggregates for the tool to print
// its tables from; in join mode it returns nil aggregates after the
// worker loop ends. Errors are fatal: printed and exited.
func (f *CampaignFlags) Distributed(tool string, spec campaign.Spec, profile string) (map[core.Generation]*scenario.Aggregate, bool) {
	switch {
	case f.Serve != "":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		aggs, err := f.ServeCampaign(ctx, tool, spec, profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
			f.CheckpointHint(tool, ctx.Err() != nil)
			os.Exit(1)
		}
		return aggs, true
	case f.Join != "":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := f.JoinCampaign(ctx, tool); err != nil {
			Fatal(tool, 1, err)
		}
		return nil, true
	}
	return nil, false
}

// ServeCampaign runs the coordinator for spec on f.Serve until the
// campaign completes (returning the merged aggregates) or ctx cancels.
// With -checkpoint it resumes from the runs already journaled there and
// journals every run it merges.
func (f *CampaignFlags) ServeCampaign(ctx context.Context, tool string, spec campaign.Spec, profile string) (map[core.Generation]*scenario.Aggregate, error) {
	j, err := f.OpenCheckpoint(spec)
	if err != nil {
		return nil, err
	}
	replayed := 0
	if j != nil {
		defer j.Close()
		replayed = j.Len()
	}
	cfg := coord.Config{Spec: spec, Profile: profile, LeaseTTL: f.LeaseTTL, Journal: j}
	if f.Progress {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
		}
	}
	c, err := coord.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", f.Serve)
	if err != nil {
		return nil, err
	}
	// The coordinator API shares its listener with the standard debug
	// surface: GET /metrics (lease/steal/reject counters live here) and
	// /debug/pprof, scrapeable mid-campaign.
	mux := obs.DebugMux()
	mux.Handle("/", c.Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)

	fmt.Printf("%s: coordinating %d runs on %s (lease TTL %s)\n", tool, spec.Total(), ln.Addr(), f.LeaseTTL)
	fmt.Printf("%s: join with: %s -join http://<this-host>:%d [-workers N]\n", tool, tool, ln.Addr().(*net.TCPAddr).Port)

	// Progress heartbeat on stderr while the fleet grinds.
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for done := false; !done; {
		select {
		case <-ctx.Done():
			srv.Close()
			return nil, fmt.Errorf("interrupted with %d/%d runs merged", c.Status().Done, spec.Total())
		case <-tick.C:
			if f.Progress {
				st := c.Status()
				fmt.Fprintf(os.Stderr, "%s: %d/%d runs, %d workers, %d leases (%d expired), %.1f runs/s, ETA %s\n",
					tool, st.Done, st.Total, st.Workers, st.Leases, st.Expired,
					st.RunsPerSec, (time.Duration(st.ETASeconds * float64(time.Second))).Round(time.Second))
			}
		case <-c.Done():
			done = true
		}
	}

	st := c.Status()
	// The run count and rate cover the runs this process merged, not
	// those its journal already held.
	fmt.Printf("%s: campaign complete: %d runs in %.1fs (%.1f runs/s) across %d leases on %d workers\n",
		tool, st.Total-replayed, st.ElapsedSeconds, st.RunsPerSec, st.Leases, st.Workers)
	fmt.Printf("%s: %d expired leases re-dispatched, %d duplicate results folded; cell affinity %d/%d hits\n",
		tool, st.Expired, st.Dups, st.AffinityHits, st.AffinityHits+st.AffinityMisses)
	fmt.Printf("aggregate digest: %s\n", c.Digest())

	// Let the fleet hear the completion signal before the listener goes
	// away.
	time.Sleep(shutdownLinger)
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	return c.Aggregates(), nil
}

// JoinCampaign runs the worker loop against the coordinator at f.Join
// until the campaign completes or ctx cancels.
func (f *CampaignFlags) JoinCampaign(ctx context.Context, tool string) error {
	opts := coord.WorkerOptions{
		Addr:          f.Join,
		Name:          f.WorkerName,
		EngineWorkers: f.Workers,
		CheckpointDir: f.Checkpoint,
	}
	if f.Progress {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
		}
	}
	sum, err := coord.Work(ctx, opts)
	fmt.Printf("%s: worker done: %s\n", tool, sum)
	return err
}
