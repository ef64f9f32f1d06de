package coord

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// The rejection-path suite fabricates uploads against a live handler:
// results here are synthetic (self-consistent digests over made-up runs),
// because what is under test is the coordinator's refusal logic, not the
// engine.

func rejectSpec(maps int) campaign.Spec {
	return campaign.Spec{
		Maps:        campaign.Range(maps),
		Scenarios:   campaign.Range(2),
		Repeats:     1,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
}

func newTestCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

func grantLease(t *testing.T, srv *httptest.Server, worker string) *Lease {
	t.Helper()
	return grantSlotLease(t, srv, LeaseRequest{Worker: worker})
}

func grantSlotLease(t *testing.T, srv *httptest.Server, req LeaseRequest) *Lease {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease request: %s", resp.Status)
	}
	var l Lease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		t.Fatal(err)
	}
	return &l
}

// fakeEntry fabricates a finished run for canonical index i; vary dur to
// get distinct (but internally consistent) results for conflict tests.
func fakeEntry(i int, dur float64) campaign.RunEntry {
	r := scenario.Result{Outcome: scenario.Success, Duration: dur, Landed: true}
	return campaign.RunEntry{Index: i, Digest: r.Digest(), Result: r}
}

func gzEntries(t testing.TB, entries []campaign.RunEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	enc := json.NewEncoder(zw)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postResults(t *testing.T, srv *httptest.Server, sig string, leaseID int64, body []byte, final bool, digest string) (*http.Response, string) {
	t.Helper()
	u := fmt.Sprintf("%s%s?lease=%d&worker=t", srv.URL, PathResults, leaseID)
	if final {
		u += "&final=1&digest=" + digest
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SigHeader, sig)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(b)
}

func TestUploadRejectsCampaignSigMismatch(t *testing.T) {
	c, srv := newTestCoordinator(t, Config{Spec: rejectSpec(2)})
	l := grantLease(t, srv, "t")
	body := gzEntries(t, []campaign.RunEntry{fakeEntry(l.Start, 30)})
	resp, msg := postResults(t, srv, "deadbeef", l.ID, body, false, "")
	if resp.StatusCode != http.StatusConflict || !strings.Contains(msg, "signature mismatch") {
		t.Fatalf("got %s %q, want 409 signature mismatch", resp.Status, msg)
	}
	if c.merger.Done() != 0 {
		t.Fatal("nothing must merge from a skewed build")
	}
}

func TestUploadRejectsTruncatedStream(t *testing.T) {
	c, srv := newTestCoordinator(t, Config{Spec: rejectSpec(4), MinLease: 8, MaxLease: 8})
	l := grantLease(t, srv, "t")
	entries := make([]campaign.RunEntry, 0, l.End-l.Start)
	for i := l.Start; i < l.End; i++ {
		entries = append(entries, fakeEntry(i, 20+float64(i)))
	}
	whole := gzEntries(t, entries)

	// A connection dropped mid-upload delivers a prefix of the gzip
	// stream. The upload is atomic: reject whole, merge nothing.
	resp, msg := postResults(t, srv, l.Sig, l.ID, whole[:len(whole)/2], false, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated upload: got %s %q, want 400", resp.Status, msg)
	}
	if c.merger.Done() != 0 {
		t.Fatalf("truncated upload merged %d runs; atomicity broken", c.merger.Done())
	}

	// The worker's journal still has everything; the full re-send lands.
	resp, msg = postResults(t, srv, l.Sig, l.ID, whole, false, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-send after truncation: got %s %q", resp.Status, msg)
	}
	if c.merger.Done() != len(entries) {
		t.Fatalf("re-send merged %d, want %d", c.merger.Done(), len(entries))
	}
}

func TestUploadRejectsCorruptEntry(t *testing.T) {
	c, srv := newTestCoordinator(t, Config{Spec: rejectSpec(2)})
	l := grantLease(t, srv, "t")
	e := fakeEntry(l.Start, 30)
	e.Result.Duration = 31 // flipped bit in flight: digest no longer matches
	resp, msg := postResults(t, srv, l.Sig, l.ID, gzEntries(t, []campaign.RunEntry{e}), false, "")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "digest mismatch") {
		t.Fatalf("got %s %q, want 400 digest mismatch", resp.Status, msg)
	}
	if c.merger.Done() != 0 {
		t.Fatal("corrupt entry must not merge")
	}
}

func TestUploadRejectsRunsOutsideLease(t *testing.T) {
	_, srv := newTestCoordinator(t, Config{Spec: rejectSpec(4), MinLease: 2, MaxLease: 2})
	l := grantLease(t, srv, "t")
	if l.End-l.Start >= 8 {
		t.Fatalf("test wants a partial lease, got [%d,%d)", l.Start, l.End)
	}
	resp, msg := postResults(t, srv, l.Sig, l.ID, gzEntries(t, []campaign.RunEntry{fakeEntry(7, 30)}), false, "")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "outside lease range") {
		t.Fatalf("got %s %q, want 400 outside lease range", resp.Status, msg)
	}
}

func TestUploadRejectsConflictingResult(t *testing.T) {
	c, srv := newTestCoordinator(t, Config{Spec: rejectSpec(2)})
	l := grantLease(t, srv, "t")
	resp, msg := postResults(t, srv, l.Sig, l.ID, gzEntries(t, []campaign.RunEntry{fakeEntry(l.Start, 30)}), false, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first upload: %s %q", resp.Status, msg)
	}
	// The same canonical run with a different (self-consistent) result:
	// impossible from a correct deterministic build, so it is refused and
	// the merged state stands.
	resp, msg = postResults(t, srv, l.Sig, l.ID, gzEntries(t, []campaign.RunEntry{fakeEntry(l.Start, 99)}), false, "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-upload: got %s %q, want 409", resp.Status, msg)
	}
	if c.merger.Done() != 1 {
		t.Fatalf("done = %d, want 1 (original result untouched)", c.merger.Done())
	}
}

// TestUploadFailsOnJournalWriteError: a coordinator that cannot journal a
// new run fails the upload with a 5xx and merges nothing from it, so it
// acknowledges no run its journal does not hold.
func TestUploadFailsOnJournalWriteError(t *testing.T) {
	spec := rejectSpec(2)
	path := filepath.Join(t.TempDir(), "coord.ckpt")
	j, err := campaign.OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	c, srv := newTestCoordinator(t, Config{Spec: spec, MinLease: 4, MaxLease: 4, Journal: j})
	l := grantLease(t, srv, "t")
	if resp, msg := postResults(t, srv, l.Sig, l.ID, gzEntries(t, []campaign.RunEntry{fakeEntry(l.Start, 30)}), false, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("journaled upload: %s %q", resp.Status, msg)
	}
	j.Close() // every later append fails
	resp, msg := postResults(t, srv, l.Sig, l.ID, gzEntries(t, []campaign.RunEntry{fakeEntry(l.Start+1, 30)}), false, "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("upload the journal could not record: got %s %q, want 500", resp.Status, msg)
	}
	if c.merger.Done() != 1 || c.merger.IsDone(l.Start+1) {
		t.Fatalf("done = %d, want only the journaled run merged", c.merger.Done())
	}
	reopened, err := campaign.OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.CompletedIndices(); len(got) != 1 || got[0] != l.Start {
		t.Fatalf("journal holds runs %v, want [%d]", got, l.Start)
	}
}

// leaseDigest folds the entries the way the coordinator does, to produce
// the digest a correct worker would send with final=1.
func leaseDigest(entries []campaign.RunEntry) string {
	agg := scenario.NewAggregate(core.V1.String())
	for _, e := range entries {
		agg.Add(e.Result)
	}
	return campaign.AggregatesDigest(map[core.Generation]*scenario.Aggregate{core.V1: agg})
}

func TestFinalDigestMismatchThenRecovery(t *testing.T) {
	c, srv := newTestCoordinator(t, Config{Spec: rejectSpec(2), MinLease: 8, MaxLease: 8})
	l := grantLease(t, srv, "t")
	entries := make([]campaign.RunEntry, 0, l.End-l.Start)
	for i := l.Start; i < l.End; i++ {
		entries = append(entries, fakeEntry(i, 20+float64(i)))
	}

	resp, msg := postResults(t, srv, l.Sig, l.ID, gzEntries(t, entries), true, "0000beef")
	if resp.StatusCode != http.StatusConflict || !strings.Contains(msg, "aggregate digest mismatch") {
		t.Fatalf("got %s %q, want 409 aggregate digest mismatch", resp.Status, msg)
	}

	// The mismatch does not finalize the lease: a corrected final (say the
	// worker re-reads its journal) retires it and completes the campaign.
	resp, msg = postResults(t, srv, l.Sig, l.ID, gzEntries(t, nil), true, leaseDigest(entries))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrected final: %s %q", resp.Status, msg)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign should be complete")
	}
	if st := c.Status(); !st.Complete || st.Digest == "" {
		t.Fatalf("status = %+v, want complete with digest", st)
	}
}

func TestDuplicateLeaseResultRejected(t *testing.T) {
	_, srv := newTestCoordinator(t, Config{Spec: rejectSpec(2), MinLease: 8, MaxLease: 8})
	l := grantLease(t, srv, "t")
	entries := make([]campaign.RunEntry, 0, l.End-l.Start)
	for i := l.Start; i < l.End; i++ {
		entries = append(entries, fakeEntry(i, 20+float64(i)))
	}
	body := gzEntries(t, entries)
	if resp, msg := postResults(t, srv, l.Sig, l.ID, body, true, leaseDigest(entries)); resp.StatusCode != http.StatusOK {
		t.Fatalf("final upload: %s %q", resp.Status, msg)
	}

	// A zombie replaying the same lease result: the lease is retired, so
	// the whole upload is refused (every run would have deduped anyway).
	resp, msg := postResults(t, srv, l.Sig, l.ID, body, true, leaseDigest(entries))
	if resp.StatusCode != http.StatusConflict || !strings.Contains(msg, "already finalized") {
		t.Fatalf("got %s %q, want 409 already finalized", resp.Status, msg)
	}

	// And the campaign being complete, the next pull says so.
	body2, _ := json.Marshal(LeaseRequest{Worker: "t2"})
	r2, err := http.Post(srv.URL+PathLease, "application/json", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusGone {
		t.Fatalf("lease after completion: got %s, want 410", r2.Status)
	}
}

func TestLeaseAndHeartbeatValidation(t *testing.T) {
	_, srv := newTestCoordinator(t, Config{Spec: rejectSpec(2)})
	resp, err := http.Post(srv.URL+PathLease, "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("anonymous lease request: got %s, want 400", resp.Status)
	}

	hb, _ := json.Marshal(Heartbeat{Lease: 999, Worker: "t"})
	resp, err = http.Post(srv.URL+PathHeartbeat, "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat for unknown lease: got %s, want 404", resp.Status)
	}

	resp, _ = postResults(t, srv, "", 1, []byte("not gzip"), false, "")
	if resp.StatusCode != http.StatusConflict {
		// Sig check runs first; with the right sig a non-gzip body is 400.
		t.Fatalf("got %s, want 409 (sig checked before body)", resp.Status)
	}
}

// TestWorkerRefusesSubSigSkew points a real worker at a coordinator whose
// lease signature does not match what the worker's own build computes for
// the same runs — the fail-fast for version skew, caught before any
// compute is spent.
func TestWorkerRefusesSubSigSkew(t *testing.T) {
	err := workRefusedLease(t, func(l *Lease) { l.SubSig = "0000000000000000" })
	if err == nil || !strings.Contains(err.Error(), "signature skew") {
		t.Fatalf("err = %v, want signature skew", err)
	}
}

// TestWorkerRefusesUnknownProfile: a lease naming a profile no catalog
// campaign carries is refused before any run flies — executing it without
// its hook would produce wrong-but-plausible digests.
func TestWorkerRefusesUnknownProfile(t *testing.T) {
	err := workRefusedLease(t, func(l *Lease) { l.Profile = "turbo" })
	if err == nil || !strings.Contains(err.Error(), `unknown profile "turbo"`) {
		t.Fatalf("err = %v, want unknown profile", err)
	}
}

// workRefusedLease serves one well-formed lease, edited by edit, to a
// real worker and returns the worker's error; the lease must be refused
// before the engine runs.
func workRefusedLease(t *testing.T, edit func(*Lease)) error {
	t.Helper()
	spec := rejectSpec(2)
	runs, err := spec.Runs()
	if err != nil {
		t.Fatal(err)
	}
	timing := spec.Timing.Canonical()
	lease := Lease{
		ID: 1, Sig: "sig", Start: 0, End: len(runs), Total: len(runs),
		Runs: runs, Timing: timing, TTLSeconds: 30,
	}
	if lease.SubSig, err = lease.Spec().Signature(); err != nil {
		t.Fatal(err)
	}
	edit(&lease)
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathLease, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(lease)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	executed := false
	_, err = Work(context.Background(), WorkerOptions{
		Addr: srv.URL, Name: "w", PollInterval: 10 * time.Millisecond,
		executeFn: func(context.Context, campaign.Spec, campaign.Options) (*campaign.Report, error) {
			executed = true
			return nil, nil
		},
	})
	if executed {
		t.Fatal("worker must refuse the lease before running anything")
	}
	return err
}
