package coord

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/catalog"
	"repro/internal/scenario"
)

// Worker loop: pull a lease, execute it through the ordinary campaign
// engine, stream the finished runs back, repeat until the coordinator
// says 410. A worker runs one such loop per engine slot, all under its
// one name, so a slot whose lease ran dry pulls the next lease while the
// others keep flying theirs. The checkpoint journal doubles as the
// upload buffer — every finished run is journaled before it is uploaded,
// so a worker that crashes mid-lease and re-acquires the same range
// replays its journal through the engine's resume path and the replayed
// results flow straight back into the upload stream; nothing flies twice.

// WorkerOptions parameterizes Work.
type WorkerOptions struct {
	// Addr is the coordinator's base URL, e.g. "http://10.0.0.1:9131".
	Addr string
	// Name identifies the worker to the scheduler. Keep it stable across
	// restarts (the default hostname:pid is NOT stable) so cell-affinity
	// history and journal reuse survive a crash.
	Name string
	// EngineWorkers is the number of engine slots (the familiar
	// -workers); 0 means 1. Each slot pulls and flies its own leases, so
	// the worker holds up to this many at once.
	EngineWorkers int
	// CheckpointDir, when set, journals every lease to
	// <dir>/lease-<subsig>.journal for crash-safe resume; the journal is
	// removed once the lease's final upload is acknowledged.
	CheckpointDir string
	// PollInterval is the retry cadence when the coordinator has nothing
	// free (204); 0 means 500ms.
	PollInterval time.Duration
	// FlushEvery is the upload chunk size in runs; 0 means 64.
	FlushEvery int
	// Log, when non-nil, receives worker progress lines.
	Log func(format string, args ...any)
	// Client overrides the HTTP client (tests); nil means a 60s-timeout
	// default.
	Client *http.Client

	// DieAfterRuns is a chaos hook for tests: the worker kills itself
	// (no final upload, journals left behind) after executing this many
	// runs across all its slots. 0 disables.
	DieAfterRuns int

	// executeFn stubs the engine in handler-level tests; nil means
	// campaign.Execute.
	executeFn func(context.Context, campaign.Spec, campaign.Options) (*campaign.Report, error)
}

// WorkerSummary is what a finished worker reports.
type WorkerSummary struct {
	// Leases counts leases this worker completed; Abandoned counts leases
	// the coordinator expired out from under it (slow runs, partitions).
	Leases    int
	Abandoned int
	// Runs counts results delivered through this worker's engine,
	// including journal-replayed ones on resume.
	Runs int
	// Uploaded/Duplicates are the coordinator's accept counts for this
	// worker's uploads.
	Uploaded   int
	Duplicates int
}

func (s *WorkerSummary) String() string {
	return fmt.Sprintf("%d leases (%d abandoned), %d runs, %d uploaded (%d already merged elsewhere)",
		s.Leases, s.Abandoned, s.Runs, s.Uploaded, s.Duplicates)
}

// errChaosDeath marks the DieAfterRuns hook firing.
var errChaosDeath = fmt.Errorf("coord: worker died (chaos hook)")

type worker struct {
	opts WorkerOptions
	base string

	mu  sync.Mutex // guards sum: every slot adds to it
	sum WorkerSummary
	// executed counts runs flown across all leases, for DieAfterRuns.
	executed atomic.Int64
	// gone closes when a slot hears 410, so a sibling waiting out a 204
	// poll stops at once instead of sleeping a full PollInterval.
	gone     chan struct{}
	goneOnce sync.Once
}

// Work joins the coordinator at opts.Addr and executes leases until the
// campaign completes (nil error), the context cancels, or a fatal
// protocol error occurs. The returned summary is valid in all cases.
func Work(ctx context.Context, opts WorkerOptions) (*WorkerSummary, error) {
	if opts.Addr == "" {
		return &WorkerSummary{}, fmt.Errorf("coord: worker needs a coordinator address")
	}
	if opts.Name == "" {
		host, _ := os.Hostname()
		opts.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if opts.EngineWorkers < 1 {
		opts.EngineWorkers = 1
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	if opts.FlushEvery < 1 {
		opts.FlushEvery = 64
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return &WorkerSummary{}, fmt.Errorf("coord: checkpoint dir: %w", err)
		}
	}
	if opts.executeFn == nil {
		opts.executeFn = campaign.Execute
	}
	w := &worker{opts: opts, base: strings.TrimRight(opts.Addr, "/"), gone: make(chan struct{})}

	// One pull loop per engine slot; the first error stops them all.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for range opts.EngineWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.pull(ctx); err != nil {
				errOnce.Do(func() { firstErr = err })
				cancel()
			}
		}()
	}
	wg.Wait()
	return &w.sum, firstErr
}

// pull is one engine slot's loop: lease, fly, upload, until the campaign
// completes. The slot's gzip writer is reset for every upload instead of
// allocated anew.
func (w *worker) pull(ctx context.Context) error {
	zw := gzip.NewWriter(nil)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, status, err := w.requestLease(ctx)
		switch {
		case err != nil:
			return err
		case status == http.StatusGone:
			// Campaign complete: the fleet's shutdown signal.
			w.goneOnce.Do(func() {
				w.logf("campaign complete, exiting")
				close(w.gone)
			})
			return nil
		case status == http.StatusNoContent:
			// Everything pending is leased to someone else; an expiry may
			// free work, so poll.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-w.gone:
				return nil
			case <-time.After(w.opts.PollInterval):
			}
			continue
		}
		if err := w.runLease(ctx, lease, zw); err != nil {
			return err
		}
	}
}

// add folds a change into the summary every slot shares.
func (w *worker) add(f func(*WorkerSummary)) {
	w.mu.Lock()
	f(&w.sum)
	w.mu.Unlock()
}

func (w *worker) logf(format string, args ...any) {
	if w.opts.Log != nil {
		w.opts.Log(format, args...)
	}
}

// requestLease pulls the next lease. A non-2xx status other than 204/410
// (and any transport error) retries a few times before giving up — the
// coordinator restarting mid-campaign should not kill the fleet.
func (w *worker) requestLease(ctx context.Context) (*Lease, int, error) {
	body, err := json.Marshal(LeaseRequest{Worker: w.opts.Name, Slots: w.opts.EngineWorkers})
	if err != nil {
		return nil, 0, err
	}
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			case <-time.After(time.Duration(attempt) * w.opts.PollInterval):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+PathLease, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		resp, err := w.opts.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var l Lease
			err := json.NewDecoder(resp.Body).Decode(&l)
			resp.Body.Close()
			if err != nil {
				return nil, 0, fmt.Errorf("coord: bad lease body: %w", err)
			}
			return &l, resp.StatusCode, nil
		case http.StatusNoContent, http.StatusGone:
			resp.Body.Close()
			return nil, resp.StatusCode, nil
		default:
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = fmt.Errorf("coord: lease request: %s: %s", resp.Status, strings.TrimSpace(string(b)))
		}
	}
	return nil, 0, lastErr
}

// runLease executes one lease end to end on one engine slot: verify,
// (re)open the journal, run the engine with chunked uploads riding
// OnResult, heartbeat in the background, and finalize with the lease
// aggregate digest. zw is the slot's gzip writer.
func (w *worker) runLease(ctx context.Context, lease *Lease, zw *gzip.Writer) error {
	sub := lease.Spec()
	subSig, err := sub.Signature()
	if err != nil {
		return err
	}
	if subSig != lease.SubSig {
		return fmt.Errorf("coord: lease %d signature skew (local %.12s…, coordinator %.12s…) — worker and coordinator builds resolve the spec differently",
			lease.ID, subSig, lease.SubSig)
	}
	// The campaign's result-changing hook is a function, so it cannot
	// travel the wire: the lease names its campaign and the catalog
	// rebuilds the hook.
	if sub.Configure, err = catalog.Hook(lease.Profile); err != nil {
		return err
	}

	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu        sync.Mutex
		pending   []campaign.RunEntry
		uploadErr error
		done      atomic.Int64
		abandoned atomic.Bool
		died      atomic.Bool
		acked     bool // the final upload was acknowledged
	)
	flush := func(final bool, digest string) error {
		mu.Lock()
		defer mu.Unlock()
		if uploadErr != nil {
			return uploadErr
		}
		if len(pending) == 0 && !final {
			return nil
		}
		reply, err := w.upload(leaseCtx, zw, lease, pending, final, digest)
		if err != nil {
			uploadErr = err
			cancel() // no point finishing runs nobody will accept
			return err
		}
		w.add(func(s *WorkerSummary) { s.Uploaded += reply.Accepted; s.Duplicates += reply.Duplicates })
		pending = pending[:0]
		return nil
	}

	engineOpts := campaign.Options{
		Workers: 1,
		OnResult: func(ru campaign.Run, r scenario.Result) {
			// Run indices are lease-local here; map back to the canonical
			// campaign index through the lease's run list.
			canonical := lease.Runs[ru.Index].Index
			mu.Lock()
			pending = append(pending, campaign.RunEntry{Index: canonical, Digest: r.Digest(), Result: r})
			n := len(pending)
			mu.Unlock()
			w.add(func(s *WorkerSummary) { s.Runs++ })
			done.Add(1)
			if w.opts.DieAfterRuns > 0 && w.executed.Add(1) >= int64(w.opts.DieAfterRuns) {
				// Chaos hook: stop mid-lease with journaled-but-unuploaded
				// work, exactly like a crash.
				died.Store(true)
				cancel()
				return
			}
			if n >= w.opts.FlushEvery {
				flush(false, "")
			}
		},
	}

	// The journal is keyed by the sub-spec signature, so a restarted
	// worker re-acquiring the same range resumes instead of reflying.
	if w.opts.CheckpointDir != "" {
		path := filepath.Join(w.opts.CheckpointDir, fmt.Sprintf("lease-%.16s.journal", subSig))
		j, err := campaign.OpenJournal(path, sub)
		if err != nil {
			return err
		}
		if n := j.Len(); n > 0 {
			w.logf("lease %d: journal %s resumes %d/%d runs", lease.ID, path, n, sub.Total())
		}
		engineOpts.Checkpoint = j
		defer func() {
			j.Close()
			// A lease whose final upload the coordinator acknowledged has
			// no further use for its journal; any other (cancelled, failed,
			// abandoned, died) keeps it for the next attempt.
			if acked {
				os.Remove(path)
			}
		}()
	}

	// Heartbeats: keep the lease alive while the engine grinds. A 404
	// means the coordinator expired us — abandon the lease (its range is
	// re-dispatched; everything we uploaded is merged, everything in
	// flight will dedup).
	hb := time.Duration(lease.HeartbeatSeconds * float64(time.Second))
	if hb <= 0 {
		hb = lease.TTL() / 3
	}
	if hb < 10*time.Millisecond {
		hb = 10 * time.Millisecond
	}
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-t.C:
				ok, err := w.beat(leaseCtx, lease, int(done.Load()))
				if err != nil {
					continue // transient; the TTL tolerates missed beats
				}
				if !ok {
					abandoned.Store(true)
					cancel()
					return
				}
			}
		}
	}()

	w.logf("lease %d: runs [%d,%d), %d to fly", lease.ID, lease.Start, lease.End, sub.Total())
	report, execErr := w.opts.executeFn(leaseCtx, sub, engineOpts)
	cancel()
	hbWG.Wait()

	switch {
	case died.Load():
		return errChaosDeath
	case abandoned.Load():
		w.logf("lease %d: expired by coordinator, abandoning", lease.ID)
		w.add(func(s *WorkerSummary) { s.Abandoned++ })
		return nil // pull the next lease; our uploaded prefix is merged
	case uploadErr != nil:
		return uploadErr
	case ctx.Err() != nil:
		return ctx.Err()
	case execErr != nil:
		return execErr
	}

	// Final upload: whatever is still buffered, plus the digest over the
	// whole lease report — the end-to-end check that what merged at the
	// coordinator is exactly what this engine computed. Sent on the parent
	// context: leaseCtx is already canceled once the engine returns.
	mu.Lock()
	defer mu.Unlock()
	reply, err := w.upload(ctx, zw, lease, pending, true, report.Digest())
	if err != nil {
		return err
	}
	acked = true
	w.add(func(s *WorkerSummary) { s.Uploaded += reply.Accepted; s.Duplicates += reply.Duplicates; s.Leases++ })
	return nil
}

// upload gzip-streams journal-format entries to the coordinator through
// zw, reset onto a fresh buffer: the transport may still read the last
// body after the reply, so only the compressor is reused.
func (w *worker) upload(ctx context.Context, zw *gzip.Writer, lease *Lease, entries []campaign.RunEntry, final bool, digest string) (*ResultsReply, error) {
	var buf bytes.Buffer
	zw.Reset(&buf)
	enc := json.NewEncoder(zw)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	q := url.Values{}
	q.Set("lease", fmt.Sprint(lease.ID))
	q.Set("worker", w.opts.Name)
	if final {
		q.Set("final", "1")
		q.Set("digest", digest)
	}
	u := w.base + PathResults + "?" + q.Encode()

	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		req.Header.Set(SigHeader, lease.Sig)
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := w.opts.Client.Do(req)
		if err != nil {
			lastErr = err // transport error: the upload is idempotent, retry
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			// 4xx/409 are protocol-level verdicts, not transient faults.
			return nil, fmt.Errorf("coord: upload rejected: %s: %s", resp.Status, strings.TrimSpace(string(b)))
		}
		var reply ResultsReply
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		return &reply, nil
	}
	return nil, fmt.Errorf("coord: upload failed: %w", lastErr)
}

// beat sends one heartbeat; ok=false means the lease is no longer ours.
func (w *worker) beat(ctx context.Context, lease *Lease, done int) (bool, error) {
	body, err := json.Marshal(Heartbeat{Lease: lease.ID, Worker: w.opts.Name, Done: done})
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+PathHeartbeat, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("coord: heartbeat: %s", resp.Status)
	}
}
