package coord

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Spec is the full campaign to dispatch.
	Spec campaign.Spec
	// Profile is the lease profile of the campaign's catalog entry
	// (catalog.Campaign.Profile), carried by every lease so workers apply
	// its Configure hook; empty means plain grid runs.
	Profile string
	// LeaseTTL is how long a lease may go without a heartbeat before it is
	// declared lost and re-dispatched. Zero means a 30s default.
	LeaseTTL time.Duration
	// MinLease/MaxLease clamp the adaptive lease size (runs per lease).
	// Zero means defaults (1 and 512).
	MinLease, MaxLease int
	// Log, when non-nil, receives coordinator progress lines.
	Log func(format string, args ...any)
	// Journal, when non-nil, is the campaign's checkpoint journal, opened
	// for Spec. The coordinator folds its runs in at start and appends
	// every run it merges for the first time before acknowledging the
	// upload, so a restart over the same journal resumes.
	Journal *campaign.Journal
}

// Coordinator owns one campaign: it cuts leases for pulling workers,
// re-dispatches lost ones, and folds digest-verified uploads into the
// campaign aggregates. Serve it with Handler; watch it with Done and
// Status.
type Coordinator struct {
	cfg    Config
	merger *campaign.Merger

	mu    sync.Mutex
	sched *scheduler
	// Per-lease upload bookkeeping for the final-digest check: which
	// canonical indices this lease has uploaded, and the fold of their
	// results. A run can reach the campaign merger as a duplicate (another
	// lease got there first) while still being first for its own lease —
	// the lease aggregate must include it, or the worker's lease digest
	// could never match.
	leaseUp  map[int64]map[int]bool
	leaseAgg map[int64]map[core.Generation]*scenario.Aggregate

	// replayed counts the runs folded in from the journal at start;
	// throughput and ETA count only the runs merged after them.
	replayed int
	start    time.Time
	now      func() time.Time
	done     chan struct{}
	doneOnce sync.Once
}

// NewCoordinator resolves the spec, folds in the runs already on record
// in cfg.Journal, and returns a coordinator ready to serve the rest. A
// journal that holds every run yields a coordinator that is already Done.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	m, err := campaign.NewMerger(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if m.Total() == 0 {
		return nil, fmt.Errorf("coord: campaign has no runs")
	}
	if j := cfg.Journal; j != nil {
		if j.Sig() != m.Sig() {
			return nil, fmt.Errorf("coord: journal belongs to a different campaign (spec %.12s…, want %.12s…)",
				j.Sig(), m.Sig())
		}
		for _, i := range j.CompletedIndices() {
			r, _ := j.Completed(i)
			if _, err := m.Accept(campaign.RunEntry{Index: i, Digest: r.Digest(), Result: r}); err != nil {
				return nil, err
			}
		}
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	c := &Coordinator{
		cfg:      cfg,
		merger:   m,
		leaseUp:  make(map[int64]map[int]bool),
		leaseAgg: make(map[int64]map[core.Generation]*scenario.Aggregate),
		replayed: m.Done(),
		now:      time.Now,
		done:     make(chan struct{}),
	}
	c.sched = newScheduler(m.Runs(), m.IsDone, cfg.LeaseTTL, cfg.MinLease, cfg.MaxLease, true)
	c.sched.instrument = true
	c.start = c.now()
	if m.Complete() {
		c.doneOnce.Do(func() { close(c.done) })
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

// Done returns a channel closed once every run of the campaign has
// merged.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Digest returns the campaign AggregatesDigest over the runs merged so
// far; once Done, it equals an uninterrupted single-machine run's digest.
func (c *Coordinator) Digest() string { return c.merger.Digest() }

// Aggregates returns the merged per-generation rows. Read them only once
// Done has closed.
func (c *Coordinator) Aggregates() map[core.Generation]*scenario.Aggregate {
	return c.merger.Aggregates()
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathLease, c.handleLease)
	mux.HandleFunc("POST "+PathResults, c.handleResults)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("GET "+PathStatus, c.handleStatus)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil || req.Worker == "" {
		http.Error(w, "coord: lease request needs a worker name", http.StatusBadRequest)
		return
	}
	if c.merger.Complete() {
		// 410 is the fleet's shutdown signal: the campaign is finished and
		// the worker should exit cleanly.
		http.Error(w, "coord: campaign complete", http.StatusGone)
		return
	}
	c.mu.Lock()
	l := c.sched.lease(req.Worker, req.Slots, c.now())
	if l != nil {
		c.leaseUp[l.id] = make(map[int]bool)
		c.leaseAgg[l.id] = make(map[core.Generation]*scenario.Aggregate)
	}
	c.mu.Unlock()
	if l == nil {
		// Nothing free right now (everything pending is under an active
		// lease); poll again — an expiry may free work at any moment.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	runs := c.merger.Runs()[l.start:l.end]
	timing := c.cfg.Spec.Timing.Canonical()
	subSig, err := campaign.RunsSpec(runs, timing).Signature()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ttl := c.cfg.LeaseTTL.Seconds()
	c.logf("lease %d: runs [%d,%d) -> %s", l.id, l.start, l.end, req.Worker)
	writeJSON(w, Lease{
		ID:               l.id,
		Sig:              c.merger.Sig(),
		SubSig:           subSig,
		Start:            l.start,
		End:              l.end,
		Total:            c.merger.Total(),
		Runs:             runs,
		Timing:           timing,
		Profile:          c.cfg.Profile,
		TTLSeconds:       ttl,
		HeartbeatSeconds: ttl / 3,
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&hb); err != nil {
		http.Error(w, "coord: bad heartbeat", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	deadline, ok := c.sched.heartbeat(hb.Lease, hb.Done, c.now())
	c.mu.Unlock()
	if !ok {
		// The lease expired (or never existed): the worker should abandon
		// it — its range has been re-dispatched, and anything it already
		// uploaded is merged.
		http.Error(w, "coord: lease not active", http.StatusNotFound)
		return
	}
	writeJSON(w, HeartbeatReply{DeadlineSeconds: deadline.Sub(c.now()).Seconds()})
}

// handleResults ingests one gzip JSONL stream of RunEntry lines. The
// upload is atomic: every line is decoded and digest-verified before
// anything merges, so a truncated or corrupt stream rejects with 400 and
// changes nothing — the worker's journal still has the entries and can
// re-send them all.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from := q.Get("worker")
	if sig := r.Header.Get(SigHeader); sig != c.merger.Sig() {
		// Version skew: the worker's build resolves the Spec differently.
		// None of its results can mean what this campaign means.
		c.reject(from, "sig-mismatch")
		http.Error(w, fmt.Sprintf("coord: campaign signature mismatch (worker %.12s…, campaign %.12s…)",
			sig, c.merger.Sig()), http.StatusConflict)
		return
	}
	id, err := strconv.ParseInt(q.Get("lease"), 10, 64)
	if err != nil {
		c.reject(from, "bad-lease-id")
		http.Error(w, "coord: bad lease id", http.StatusBadRequest)
		return
	}
	final := q.Get("final") == "1"

	entries, err := decodeEntries(r.Body, c.merger.Total())
	if err != nil {
		c.reject(from, "decode")
		http.Error(w, fmt.Sprintf("coord: rejecting upload whole: %v", err), http.StatusBadRequest)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.sched.leases[id]
	if l == nil {
		c.rejectLocked(from, "unknown-lease")
		http.Error(w, "coord: unknown lease", http.StatusNotFound)
		return
	}
	if from == "" {
		from = l.worker
	}
	if l.phase == leaseDone {
		// Duplicate lease result: this lease already finalized and retired.
		c.rejectLocked(from, "already-finalized")
		http.Error(w, "coord: lease already finalized", http.StatusConflict)
		return
	}
	for _, e := range entries {
		if e.Index < l.start || e.Index >= l.end {
			c.rejectLocked(from, "out-of-range")
			http.Error(w, fmt.Sprintf("coord: run %d outside lease range [%d,%d)", e.Index, l.start, l.end),
				http.StatusBadRequest)
			return
		}
	}

	accepted, dups := 0, 0
	for _, e := range entries {
		if c.cfg.Journal != nil && !c.merger.IsDone(e.Index) {
			// Journaled before it merges, so the journal holds every run
			// this coordinator merged: a write error fails the upload
			// unacknowledged.
			if err := c.cfg.Journal.Append(c.merger.Runs()[e.Index], e.Result); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		dup, err := c.merger.Accept(e)
		if err != nil {
			// A conflicting digest for an already-merged run: the worker is
			// broken (runs are deterministic). Refuse; the merged state is
			// untouched.
			c.rejectLocked(from, "result-conflict")
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if dup {
			dups++
		} else {
			accepted++
		}
		// Fold the lease-local aggregate exactly once per run per lease —
		// a campaign-level duplicate can still be first for this lease.
		if up := c.leaseUp[id]; !up[e.Index] {
			up[e.Index] = true
			gen := c.merger.Runs()[e.Index].Gen
			agg := c.leaseAgg[id][gen]
			if agg == nil {
				agg = scenario.NewAggregate(gen.String())
				c.leaseAgg[id][gen] = agg
			}
			agg.Add(e.Result)
		}
	}

	if final {
		// End-to-end check on the whole lease: the worker's digest over its
		// own report must equal the digest over what actually arrived and
		// folded here. Catches any divergence the per-entry digests cannot
		// (dropped chunks, a worker folding differently than it uploads).
		got := campaign.AggregatesDigest(c.leaseAgg[id])
		if want := q.Get("digest"); want != got {
			c.rejectLocked(from, "digest-mismatch")
			http.Error(w, fmt.Sprintf("coord: lease %d aggregate digest mismatch (worker %.12s…, merged %.12s…)",
				id, want, got), http.StatusConflict)
			return
		}
		c.sched.release(l)
		delete(c.leaseUp, id)
		delete(c.leaseAgg, id)
		c.logf("lease %d: finalized (%d runs)", id, l.end-l.start)
	}

	if c.merger.Complete() {
		c.doneOnce.Do(func() { close(c.done) })
	}
	writeJSON(w, ResultsReply{
		Accepted:   accepted,
		Duplicates: dups,
		Done:       c.merger.Done(),
		Total:      c.merger.Total(),
	})
}

// reject counts one upload refused whole: the by-reason process counter
// plus the per-worker attribution row (uploads carry worker= since the
// name is also how affinity history is keyed). rejectLocked is for the
// reject sites already under c.mu; reject takes the lock itself.
func (c *Coordinator) reject(worker, reason string) {
	c.mu.Lock()
	c.rejectLocked(worker, reason)
	c.mu.Unlock()
}

func (c *Coordinator) rejectLocked(worker, reason string) {
	mUploadRejects.With(reason).Inc()
	c.sched.noteReject(worker)
}

// decodeEntries reads a gzip JSONL RunEntry stream, verifying every line,
// and returns all entries or the first error — nothing partial.
func decodeEntries(body io.Reader, total int) ([]campaign.RunEntry, error) {
	zr, err := gzip.NewReader(body)
	if err != nil {
		return nil, fmt.Errorf("not a gzip stream: %v", err)
	}
	defer zr.Close()
	var entries []campaign.RunEntry
	sc := bufio.NewScanner(zr)
	// A line is a few KB: start at the scanner's own small buffer rather
	// than allocating 64 KB per upload, and grow up to 4 MB on demand.
	sc.Buffer(nil, 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e campaign.RunEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("entry %d: bad JSON: %v", len(entries), err)
		}
		if err := e.Verify(total); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		// Includes a truncated gzip stream: the decompressor surfaces
		// io.ErrUnexpectedEOF through the scanner.
		return nil, fmt.Errorf("truncated or corrupt stream: %v", err)
	}
	return entries, nil
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Status())
}

// Status snapshots live campaign progress.
func (c *Coordinator) Status() Status {
	now := c.now()
	c.mu.Lock()
	c.sched.sweep(now)
	workers, _ := c.sched.active(now)
	st := Status{
		Leased:        c.sched.leasedRuns(),
		Pending:       c.sched.pending,
		Workers:       workers,
		Leases:        c.sched.issued,
		Expired:       c.sched.expired,
		WorkersDetail: c.sched.workerDetail(now),
	}
	aff := c.sched.affinityStats()
	c.mu.Unlock()

	st.Total = c.merger.Total()
	st.Done = c.merger.Done()
	st.Dups = c.merger.Duplicates()
	st.AffinityHits = aff.Hits
	st.AffinityMisses = aff.Misses
	st.ElapsedSeconds = now.Sub(c.start).Seconds()
	if merged := st.Done - c.replayed; merged > 0 && st.ElapsedSeconds > 0 {
		st.RunsPerSec = float64(merged) / st.ElapsedSeconds
		if st.Done < st.Total {
			st.ETASeconds = float64(st.Total-st.Done) / st.RunsPerSec
		}
	}
	if st.Done == st.Total {
		st.Complete = true
		st.Digest = c.merger.Digest()
	}
	return st
}
