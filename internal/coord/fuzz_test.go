package coord

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// The wire fuzz targets. Their seeds are the rejection cases of
// reject_test.go; testdata/fuzz holds the committed corpus. Run one with
//
//	go test -run '^$' -fuzz '^FuzzDecodeEntries$' -fuzztime 60s ./internal/coord

// FuzzDecodeEntries feeds arbitrary upload bodies to the result decoder:
// it must never panic, and every entry it accepts must pass Verify.
func FuzzDecodeEntries(f *testing.F) {
	var entries []campaign.RunEntry
	for i := 0; i < 4; i++ {
		entries = append(entries, fakeEntry(i, 20+float64(i)))
	}
	whole := gzEntries(f, entries)
	corrupt := fakeEntry(0, 30)
	corrupt.Result.Duration = 31
	f.Add(whole, 8)
	f.Add(whole[:len(whole)/2], 8)                                // truncated stream
	f.Add(gzEntries(f, []campaign.RunEntry{corrupt}), 4)          // digest mismatch
	f.Add(gzEntries(f, []campaign.RunEntry{fakeEntry(7, 30)}), 4) // outside the campaign
	f.Add([]byte("not gzip"), 4)
	f.Fuzz(func(t *testing.T, body []byte, total int) {
		got, err := decodeEntries(bytes.NewReader(body), total)
		if err != nil {
			if got != nil {
				t.Fatalf("error %v returned %d partial entries", err, len(got))
			}
			return
		}
		for _, e := range got {
			if err := e.Verify(total); err != nil {
				t.Fatalf("accepted entry %d fails Verify: %v", e.Index, err)
			}
		}
	})
}

// FuzzLeaseHeartbeat sends arbitrary lease-request and heartbeat bodies
// through Handler() to a coordinator holding one active lease: no body
// may draw a 5xx or a panic, and a 4xx must leave the scheduler as it was.
func FuzzLeaseHeartbeat(f *testing.F) {
	f.Add(false, []byte(`{}`))
	f.Add(false, []byte(`{"worker":""}`))
	f.Add(false, []byte(`{"worker":"t"}`))
	f.Add(false, []byte(`{"worker":"t","slots":-1}`))
	f.Add(false, []byte(`{"worker":"t","slots":0}`))
	f.Add(false, []byte(`{"worker":"t","slots":1099511627776}`)) // 1<<40
	f.Add(false, []byte(`not json`))
	f.Add(true, []byte(`{"lease":999,"worker":"t"}`))
	f.Add(true, []byte(`{"lease":1,"worker":"w0","done":1}`))
	f.Add(true, []byte(`{"lease":"1"}`))
	f.Fuzz(func(t *testing.T, heartbeat bool, body []byte) {
		c, err := NewCoordinator(Config{Spec: rejectSpec(2), MinLease: 2, MaxLease: 2})
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Unix(1_700_000_000, 0)
		c.now = func() time.Time { return t0 }
		h := c.Handler()
		grant := httptest.NewRecorder()
		h.ServeHTTP(grant, httptest.NewRequest(http.MethodPost, PathLease, strings.NewReader(`{"worker":"w0"}`)))
		if grant.Code != http.StatusOK {
			t.Fatalf("setup lease: %d", grant.Code)
		}
		path := PathLease
		if heartbeat {
			path = PathHeartbeat
		}
		before := schedulerState(c)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch {
		case rec.Code >= 500:
			t.Fatalf("%s %q: %d %s", path, body, rec.Code, rec.Body)
		case rec.Code >= 400:
			if after := schedulerState(c); after != before {
				t.Fatalf("%s %q: %d changed the scheduler\nbefore:\n%s\nafter:\n%s", path, body, rec.Code, before, after)
			}
		}
	})
}

// schedulerState renders every field of the scheduler a request could
// change, in a deterministic order.
func schedulerState(c *Coordinator) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sched
	var b strings.Builder
	fmt.Fprintf(&b, "free=%v pending=%d next=%d affinity=%d/%d owners=%v leases=%d/%d\n",
		s.free, s.pending, s.nextID, s.affHits, s.affMisses, s.cellOwner, len(c.leaseUp), len(c.leaseAgg))
	var ids []int64
	for id := range s.leases {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "lease %+v\n", *s.leases[id])
	}
	var names []string
	for name := range s.workers {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		w := s.workers[name]
		fmt.Fprintf(&b, "worker %q seen=%v slots=%d rejects=%d cells=%v\n", name, w.lastSeen, w.slots, w.rejects, w.cells)
	}
	return b.String()
}
