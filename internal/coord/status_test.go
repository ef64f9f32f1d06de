package coord

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestStatusEndpoint walks /v1/status through a campaign's life: fresh,
// mid-lease with merged runs, and complete (digest published).
func TestStatusEndpoint(t *testing.T) {
	spec := rejectSpec(1) // 1 map x 2 scenarios x 1 repeat = 2 runs
	c, srv := newTestCoordinator(t, Config{Spec: spec, MinLease: 2, MaxLease: 2})

	getStatus := func() Status {
		resp, err := http.Get(srv.URL + PathStatus)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status endpoint: %s", resp.Status)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := getStatus()
	if st.Total != 2 || st.Done != 0 || st.Complete {
		t.Fatalf("fresh status: %+v", st)
	}

	lease := grantLease(t, srv, "w")
	st = getStatus()
	if st.Leased != 2 || st.Workers != 1 || st.Leases != 1 {
		t.Fatalf("mid-lease status: %+v", st)
	}

	entries := []campaign.RunEntry{fakeEntry(0, 10), fakeEntry(1, 20)}
	resp, body := postResults(t, srv, lease.Sig, lease.ID, gzEntries(t, entries), true, leaseDigest(entries))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s: %s", resp.Status, body)
	}

	st = getStatus()
	if !st.Complete || st.Done != 2 || st.Digest == "" {
		t.Fatalf("complete status: %+v", st)
	}
	if st.Digest != c.Digest() {
		t.Fatalf("status digest %s != coordinator digest %s", st.Digest, c.Digest())
	}
	if got := c.Aggregates(); len(got) != 1 {
		t.Fatalf("aggregates: want 1 generation, got %d", len(got))
	}
	select {
	case <-c.Done():
	case <-time.After(time.Second):
		t.Fatal("done channel did not close")
	}
}

// TestStatusCountsWorkersSeen: /v1/status counts the workers that have
// pulled, each once however many slots it flies — none on a coordinator
// that a complete journal finished before any worker came.
func TestStatusCountsWorkersSeen(t *testing.T) {
	spec := rejectSpec(2)
	runs, err := spec.Runs()
	if err != nil {
		t.Fatal(err)
	}
	j, err := campaign.OpenJournal(filepath.Join(t.TempDir(), "coord.ckpt"), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i, ru := range runs {
		if err := j.Append(ru, fakeEntry(i, 10).Result); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := newTestCoordinator(t, Config{Spec: spec, Journal: j})
	if st := c.Status(); !st.Complete || st.Workers != 0 {
		t.Fatalf("complete journal: %d workers (complete %v), want 0 before any pull", st.Workers, st.Complete)
	}

	c, srv := newTestCoordinator(t, Config{Spec: spec, MinLease: 2, MaxLease: 2})
	grantSlotLease(t, srv, LeaseRequest{Worker: "w", Slots: 2})
	grantSlotLease(t, srv, LeaseRequest{Worker: "w", Slots: 2})
	st := c.Status()
	if st.Workers != 1 || len(st.WorkersDetail) != 1 || st.WorkersDetail[0].ActiveLeases != 2 {
		t.Fatalf("a 2-slot worker holding two leases: %d workers, detail %+v; want 1 worker with 2 leases",
			st.Workers, st.WorkersDetail)
	}
}

func TestLeaseTTLAndWorkerSummaryString(t *testing.T) {
	l := Lease{TTLSeconds: 1.5}
	if got, want := l.TTL(), 1500*time.Millisecond; got != want {
		t.Fatalf("TTL() = %v, want %v", got, want)
	}
	s := WorkerSummary{Leases: 3, Abandoned: 1, Runs: 7, Uploaded: 6, Duplicates: 2}
	str := s.String()
	for _, frag := range []string{"3 leases", "1 abandoned", "7 runs", "6 uploaded", "2 already merged"} {
		if !strings.Contains(str, frag) {
			t.Fatalf("summary %q missing %q", str, frag)
		}
	}
}
