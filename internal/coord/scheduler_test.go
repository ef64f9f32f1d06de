package coord

import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// schedSpec is a pure scheduling grid (never executed): two generations
// so every cell's block recurs, the canonical order's affinity
// opportunity.
func schedSpec(maps, scenarios, repeats int) campaign.Spec {
	return campaign.Spec{
		Maps:        campaign.Range(maps),
		Scenarios:   campaign.Range(scenarios),
		Repeats:     repeats,
		Generations: []core.Generation{core.V1, core.V2},
		Timing:      scenario.SILTiming(),
	}
}

func newTestScheduler(t *testing.T, spec campaign.Spec, minLease, maxLease int) (*scheduler, []bool) {
	t.Helper()
	runs, err := spec.Runs()
	if err != nil {
		t.Fatal(err)
	}
	done := make([]bool, len(runs))
	s := newScheduler(runs, func(i int) bool { return done[i] }, time.Second, minLease, maxLease, true)
	return s, done
}

func TestLeaseSizeShrinksTowardTail(t *testing.T) {
	s, done := newTestScheduler(t, schedSpec(8, 4, 2), 0, 0)
	now := time.Unix(0, 0)

	var sizes []int
	for {
		l := s.lease("w0", 1, now)
		if l == nil {
			break
		}
		sizes = append(sizes, l.end-l.start)
		for i := l.start; i < l.end; i++ {
			done[i] = true
		}
		s.release(l)
	}
	if len(sizes) < 3 {
		t.Fatalf("expected several leases, got %d", len(sizes))
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	if want := 8 * 4 * 2 * 2; total != want {
		t.Fatalf("leases covered %d runs, want %d", total, want)
	}
	// Adaptive sizing: mid-campaign leases are big, the tail is cut fine so
	// a straggler near the end cannot hold a large range hostage.
	if first, last := sizes[0], sizes[len(sizes)-1]; first <= last {
		t.Fatalf("lease sizes should shrink toward the tail: first %d, last %d (%v)", first, last, sizes)
	}
	if last := sizes[len(sizes)-1]; last > sizes[0]/2 {
		t.Fatalf("tail lease %d still at mid-campaign scale (first %d)", last, sizes[0])
	}
}

// TestLeaseSizeCountsActiveSlots: leases are sized over the engine slots
// of the active fleet, not its worker count, so a one-slot lease takes
// about as long to fly as a whole-worker lease did. Declared slots clamp
// to [1, maxSlots].
func TestLeaseSizeCountsActiveSlots(t *testing.T) {
	// One run per cell, so no lease is stretched to a cell boundary.
	s, _ := newTestScheduler(t, schedSpec(8, 8, 1), 0, 0)
	now := time.Unix(0, 0)
	s.lease("a", 1, now)
	s.lease("b", 3, now)
	pending := s.pending
	l := s.lease("a", 1, now)
	if got, want := l.end-l.start, pending/(defaultSizeFactor*4); got != want {
		t.Fatalf("lease of %d runs with %d pending over 1+3 slots, want %d", got, pending, want)
	}
	for slots, want := range map[int]int{-1: 1, 0: 1, 1 << 40: maxSlots} {
		s.lease("c", slots, now)
		if got := s.workers["c"].slots; got != want {
			t.Errorf("declared slots %d recorded as %d, want %d", slots, got, want)
		}
	}
}

func TestLeaseRespectsCellBoundaries(t *testing.T) {
	s, done := newTestScheduler(t, schedSpec(4, 2, 3), 0, 0)
	now := time.Unix(0, 0)
	for {
		l := s.lease("w0", 1, now)
		if l == nil {
			break
		}
		for i := l.start; i < l.end; i++ {
			done[i] = true
		}
		// No lease may end mid-cell: the run after the cut must belong to a
		// different cell (or the cut sits on a free-list edge).
		if l.end < len(s.runs) && cellOf(s.runs[l.end-1]) == cellOf(s.runs[l.end]) {
			if fi, _ := s.freeOverlap(segment{l.end, l.end + 1}); fi >= 0 {
				t.Fatalf("lease [%d,%d) splits cell %v", l.start, l.end, cellOf(s.runs[l.end]))
			}
		}
		s.release(l)
	}
}

func TestExpiredLeaseRedispatches(t *testing.T) {
	s, _ := newTestScheduler(t, schedSpec(2, 2, 1), 0, 0)
	now := time.Unix(0, 0)

	l1 := s.lease("w0", 1, now)
	if l1 == nil || l1.start != 0 {
		t.Fatalf("first lease should start at 0, got %+v", l1)
	}
	// Heartbeats keep it alive past the original deadline...
	if _, ok := s.heartbeat(l1.id, 1, now.Add(s.ttl/2)); !ok {
		t.Fatal("heartbeat on an active lease must succeed")
	}
	if s.expired != 0 {
		t.Fatalf("lease expired despite heartbeat")
	}
	// ...but silence past the TTL hands the range to the next puller.
	late := now.Add(s.ttl/2 + s.ttl + time.Millisecond)
	l2 := s.lease("w1", 1, late)
	if l2 == nil || l2.start != 0 {
		t.Fatalf("expired range should re-dispatch from 0, got %+v", l2)
	}
	if s.expired != 1 {
		t.Fatalf("expired = %d, want 1", s.expired)
	}
	if _, ok := s.heartbeat(l1.id, 2, late); ok {
		t.Fatal("heartbeat on an expired lease must report not-active")
	}
}

func TestReclaimPunchesOutMergedRuns(t *testing.T) {
	s, done := newTestScheduler(t, schedSpec(4, 2, 1), 16, 16)
	now := time.Unix(0, 0)
	l := s.lease("w0", 1, now)
	if l == nil || l.end-l.start != 16 {
		t.Fatalf("want the whole 16-run campaign in one lease, got %+v", l)
	}
	// The worker merged a prefix and an island before going silent.
	for _, i := range []int{0, 1, 2, 7, 8} {
		done[i] = true
	}
	s.sweep(now.Add(2 * s.ttl))
	if s.pending != 16-5 {
		t.Fatalf("pending = %d, want %d", s.pending, 11)
	}
	want := []segment{{3, 7}, {9, 16}}
	if len(s.free) != len(want) || s.free[0] != want[0] || s.free[1] != want[1] {
		t.Fatalf("free = %v, want %v", s.free, want)
	}
}

func TestAffinityBeatsRandomPlacement(t *testing.T) {
	spec := schedSpec(6, 4, 2)
	const workers = 8
	affine, err := SimulateScheduling(spec, workers, true)
	if err != nil {
		t.Fatal(err)
	}
	random, err := SimulateScheduling(spec, workers, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("affinity hit rate: affine %.1f%% vs random %.1f%%",
		100*affine.HitRate(), 100*random.HitRate())
	if affine.HitRate() <= random.HitRate() {
		t.Fatalf("affine placement (%.3f) should beat random (%.3f)",
			affine.HitRate(), random.HitRate())
	}
	// The second generation's cell blocks are the reuse opportunity; affine
	// routing should capture a solid share of it, not a rounding error.
	if affine.HitRate() < 0.25 {
		t.Fatalf("affine hit rate %.3f implausibly low", affine.HitRate())
	}
}

func TestAffinityRoutesAndStealTransfersOwnership(t *testing.T) {
	// Two maps, two repetitions, two generations: canonical order is
	// m0 m0 m1 m1 | m0 m0 m1 m1, so each cell has one block per generation.
	s, done := newTestScheduler(t, schedSpec(2, 1, 2), 2, 2)
	now := time.Unix(0, 0)
	take := func(worker string) *leaseState {
		t.Helper()
		l := s.lease(worker, 1, now)
		if l == nil {
			t.Fatalf("%s: expected a lease", worker)
		}
		for i := l.start; i < l.end; i++ {
			done[i] = true
		}
		s.release(l)
		return l
	}

	// w0 flies m0's first block, w1 flies m1's; both cells get owners.
	take("w0")
	take("w1")

	// w1's next pull jumps over m0's free second block straight to its own
	// cell — a scheduler-level cache hit.
	l := take("w1")
	if k := cellOf(s.runs[l.start]); s.cellOwner[k] != "w1" || s.affHits == 0 {
		t.Fatalf("w1 should be routed to its owned cell: got cell %v (hits %d)", k, s.affHits)
	}

	// Only m0's second block remains; w1 owns nothing free, so it steals —
	// and work-stealing transfers ownership.
	l = take("w1")
	k := cellOf(s.runs[l.start])
	if owner := s.cellOwner[k]; owner != "w1" {
		t.Fatalf("stealing must transfer ownership: owner of %v = %q, want w1", k, owner)
	}
	if s.lease("w0", 1, now) != nil {
		t.Fatal("campaign should be drained")
	}
}
