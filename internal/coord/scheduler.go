package coord

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/campaign"
)

// Lease scheduler: decides which slice of the canonical run order each
// pulling worker gets next.
//
// Three policies matter for throughput:
//
//   - Adaptive lease size. A lease is the dispatch amortization unit: big
//     leases mid-campaign keep the HTTP round-trip cost per run near
//     zero, but a big lease near the tail turns the campaign's wall time
//     into max(worker) instead of sum/workers — one straggler holds the
//     finish line. Size therefore tracks pending/(sizeFactor·workers):
//     it starts large and shrinks as the tail approaches, so losing a
//     straggler near the end costs seconds, not a thousand-run lease.
//
//   - Cell affinity. Runs for the same grid cell (map, scenario) share an
//     immutable cached world; a worker that has flown a cell holds its
//     world (and the engine's derived structures) hot. The canonical
//     order enumerates generations outermost, so the same cell recurs in
//     every generation block — sending that recurrence back to the same
//     worker converts a world regeneration into a cache hit. The first
//     worker to fly a cell becomes its owner; later requests from that
//     worker jump to the earliest free block of a cell it owns instead
//     of taking whatever sits at the front of the canonical order. Work
//     stealing still wins over affinity: when a worker owns nothing
//     free, it takes from the front, claiming (stealing) those cells.
//
//   - Cell-aligned boundaries. A lease cut mid-cell splits one cell's
//     repetition block across two workers, costing a world generation on
//     both sides; lease ends are extended to the next cell boundary.
//
// The scheduler is not safe for concurrent use; the Coordinator
// serializes access under its own lock.
type scheduler struct {
	runs   []campaign.Run
	isDone func(int) bool // merger-backed: run already merged

	free    []segment // pending, unleased ranges, sorted by start
	pending int       // total runs across free

	leases map[int64]*leaseState
	nextID int64

	workers map[string]*workerState

	// cellBlocks indexes the contiguous same-cell blocks of the canonical
	// order (one per generation, typically); cellOwner routes a cell's
	// later blocks back to the worker that flew it first.
	cellBlocks map[cellKey][]segment
	cellOwner  map[cellKey]string

	ttl        time.Duration
	minLease   int
	maxLease   int
	sizeFactor int

	// affinity toggles cell-affine routing; off picks a uniformly random
	// free segment (the A/B baseline the throughput snapshot measures
	// against).
	affinity bool
	rnd      *rand.Rand

	affHits   int
	affMisses int
	issued    int
	expired   int
	steals    int

	// instrument folds lease lifecycle into the process metrics registry.
	// Only the live Coordinator sets it: SimulateScheduling and unit tests
	// run uninstrumented so the counters mean real dispatch, not replays.
	instrument bool
}

// segment is a half-open range [start, end) of canonical run indices.
type segment struct{ start, end int }

// leaseState is the coordinator-side record of one issued lease.
type leaseState struct {
	id       int64
	worker   string
	start    int
	end      int
	issued   time.Time
	deadline time.Time
	// phase transitions: active -> (done | expired). Expired leases stay
	// on record so a zombie worker's late uploads can still be attributed
	// and merged.
	phase leasePhase
	// reported is the worker's heartbeat-reported finished-run count.
	reported int
}

type leasePhase int

const (
	leaseActive leasePhase = iota
	leaseDone
	leaseExpired
)

type workerState struct {
	// cells the worker has been assigned at least once — the scheduler's
	// model of the worker's world-cache residency.
	cells    map[cellKey]bool
	lastSeen time.Time
	// rejects counts result uploads from this worker refused whole (any
	// reason); surfaced per worker in /v1/status.
	rejects int
}

type cellKey struct{ mapIdx, scIdx int }

func cellOf(ru campaign.Run) cellKey { return cellKey{ru.MapIdx, ru.ScenarioIdx} }

// Scheduler policy defaults; the Coordinator overrides them from Config.
const (
	defaultMinLease   = 1
	defaultMaxLease   = 512
	defaultSizeFactor = 4
	// workerActivityWindow multiplies the TTL to decide how recently a
	// worker must have pulled or beaten to count as active for sizing.
	workerActivityWindow = 3
)

func newScheduler(runs []campaign.Run, isDone func(int) bool, ttl time.Duration, minLease, maxLease int, affinity bool) *scheduler {
	if minLease < 1 {
		minLease = defaultMinLease
	}
	if maxLease < minLease {
		maxLease = defaultMaxLease
	}
	s := &scheduler{
		runs:       runs,
		isDone:     isDone,
		leases:     make(map[int64]*leaseState),
		workers:    make(map[string]*workerState),
		cellBlocks: make(map[cellKey][]segment),
		cellOwner:  make(map[cellKey]string),
		ttl:        ttl,
		minLease:   minLease,
		maxLease:   maxLease,
		sizeFactor: defaultSizeFactor,
		affinity:   affinity,
		rnd:        rand.New(rand.NewSource(1)),
	}
	// Every run not merged yet is free: all of them on a fresh campaign,
	// the journal's complement on a restart.
	s.reclaim(0, len(runs))
	for i := 0; i < len(runs); {
		j := i
		for j < len(runs) && cellOf(runs[j]) == cellOf(runs[i]) {
			j++
		}
		k := cellOf(runs[i])
		s.cellBlocks[k] = append(s.cellBlocks[k], segment{i, j})
		i = j
	}
	return s
}

// sweep expires every active lease whose deadline has passed, returning
// its unfinished runs to the free list.
func (s *scheduler) sweep(now time.Time) {
	for _, l := range s.leases {
		if l.phase == leaseActive && now.After(l.deadline) {
			s.expire(l)
		}
	}
}

// expire marks a lease lost and reclaims the not-yet-merged parts of its
// range. Runs already merged (from the worker's partial uploads, or from
// a duplicate) are punched out, so only real remaining work re-dispatches.
func (s *scheduler) expire(l *leaseState) {
	l.phase = leaseExpired
	s.expired++
	if s.instrument {
		mLeasesExpired.Inc()
	}
	s.reclaim(l.start, l.end)
}

// release retires a completed lease, reclaiming any runs the worker did
// not upload (a final upload is also the worker's way of handing back a
// lease it cannot finish).
func (s *scheduler) release(l *leaseState) {
	if l.phase != leaseActive {
		return
	}
	l.phase = leaseDone
	s.reclaim(l.start, l.end)
}

// reclaim returns the unmerged sub-segments of [start, end) to the free
// list.
func (s *scheduler) reclaim(start, end int) {
	i := start
	for i < end {
		for i < end && s.isDone(i) {
			i++
		}
		j := i
		for j < end && !s.isDone(j) {
			j++
		}
		if j > i {
			s.insertFree(segment{i, j})
		}
		i = j
	}
}

// insertFree adds a segment to the sorted free list, coalescing with
// adjacent segments.
func (s *scheduler) insertFree(seg segment) {
	at := sort.Search(len(s.free), func(i int) bool { return s.free[i].start >= seg.start })
	s.free = append(s.free, segment{})
	copy(s.free[at+1:], s.free[at:])
	s.free[at] = seg
	s.pending += seg.end - seg.start
	if at+1 < len(s.free) && s.free[at].end == s.free[at+1].start {
		s.free[at].end = s.free[at+1].end
		s.free = append(s.free[:at+1], s.free[at+2:]...)
	}
	if at > 0 && s.free[at-1].end == s.free[at].start {
		s.free[at-1].end = s.free[at].end
		s.free = append(s.free[:at], s.free[at+1:]...)
	}
}

// activeWorkers counts workers seen within the activity window.
func (s *scheduler) activeWorkers(now time.Time) int {
	n := 0
	cutoff := now.Add(-workerActivityWindow * s.ttl)
	for _, w := range s.workers {
		if !w.lastSeen.Before(cutoff) {
			n++
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// leaseSize picks the next lease's target size from the live pending
// count and worker population, clamped to [minLease, maxLease].
func (s *scheduler) leaseSize(now time.Time) int {
	size := s.pending / (s.sizeFactor * s.activeWorkers(now))
	if size < s.minLease {
		size = s.minLease
	}
	if size > s.maxLease {
		size = s.maxLease
	}
	return size
}

// touch records worker liveness (and creates its affinity record).
func (s *scheduler) touch(worker string, now time.Time) *workerState {
	w := s.workers[worker]
	if w == nil {
		w = &workerState{cells: make(map[cellKey]bool)}
		s.workers[worker] = w
	}
	w.lastSeen = now
	return w
}

// lease cuts the next lease for the requesting worker, or returns nil
// when nothing is free right now (the worker should poll again — an
// expiry or a released lease may free work at any time).
func (s *scheduler) lease(worker string, now time.Time) *leaseState {
	s.sweep(now)
	w := s.touch(worker, now)
	if len(s.free) == 0 {
		return nil
	}
	size := s.leaseSize(now)

	// Choose the cut point: an owned cell's earliest free block when
	// affinity applies, the canonical front otherwise (random under the
	// measured-baseline policy).
	fi, start := -1, 0
	if s.affinity {
		fi, start = s.affineCut(worker, w)
	} else {
		fi = s.rnd.Intn(len(s.free))
		start = s.free[fi].start
	}
	if fi < 0 {
		fi, start = 0, s.free[0].start
	}
	seg := s.free[fi]

	end := start + size
	if end > seg.end {
		end = seg.end
	}
	// Extend to the cell boundary: never split one cell's contiguous
	// repetition block across two leases.
	for end < seg.end && cellOf(s.runs[end]) == cellOf(s.runs[end-1]) {
		end++
	}

	// Carve [start, end) out of the segment; mid-segment cuts (affine
	// jumps) leave a remnant on each side.
	s.free = append(s.free[:fi], s.free[fi+1:]...)
	s.pending -= seg.end - seg.start
	if start > seg.start {
		s.insertFree(segment{seg.start, start})
	}
	if end < seg.end {
		s.insertFree(segment{end, seg.end})
	}

	// Affinity accounting and ownership claims: one hit/miss per distinct
	// cell; flying a cell makes this worker its owner (stealing transfers
	// ownership — work beats affinity).
	seen := make(map[cellKey]bool)
	for i := start; i < end; i++ {
		k := cellOf(s.runs[i])
		if seen[k] {
			continue
		}
		seen[k] = true
		if w.cells[k] {
			s.affHits++
		} else {
			s.affMisses++
			w.cells[k] = true
		}
		if prev, owned := s.cellOwner[k]; owned && prev != worker {
			s.steals++
			if s.instrument {
				mLeaseSteals.Inc()
			}
		}
		s.cellOwner[k] = worker
	}

	s.nextID++
	l := &leaseState{
		id:       s.nextID,
		worker:   worker,
		start:    start,
		end:      end,
		issued:   now,
		deadline: now.Add(s.ttl),
		phase:    leaseActive,
	}
	s.leases[l.id] = l
	s.issued++
	if s.instrument {
		mLeasesIssued.Inc()
	}
	return l
}

// affineCut finds the earliest free run of a cell the worker owns,
// returning the containing free-segment index and the cut start, or
// (-1, 0) when the worker owns nothing currently free.
func (s *scheduler) affineCut(worker string, w *workerState) (int, int) {
	bestFi, bestStart := -1, -1
	for k := range w.cells {
		if s.cellOwner[k] != worker {
			continue // stolen since
		}
		for _, b := range s.cellBlocks[k] {
			fi, start := s.freeOverlap(b)
			if fi < 0 {
				continue
			}
			if bestStart < 0 || start < bestStart {
				bestFi, bestStart = fi, start
			}
		}
	}
	if bestFi < 0 {
		return -1, 0
	}
	return bestFi, bestStart
}

// freeOverlap returns the first free position inside block b, if any.
func (s *scheduler) freeOverlap(b segment) (int, int) {
	at := sort.Search(len(s.free), func(i int) bool { return s.free[i].end > b.start })
	if at == len(s.free) || s.free[at].start >= b.end {
		return -1, 0
	}
	start := s.free[at].start
	if b.start > start {
		start = b.start
	}
	return at, start
}

// heartbeat extends an active lease's deadline. It reports false when the
// lease is no longer active — the worker's cue to abandon it (its range
// has been or will be re-dispatched; anything it already uploaded is
// merged, anything in flight will dedup).
func (s *scheduler) heartbeat(id int64, done int, now time.Time) (time.Time, bool) {
	s.sweep(now)
	l := s.leases[id]
	if l == nil || l.phase != leaseActive {
		return time.Time{}, false
	}
	l.deadline = now.Add(s.ttl)
	l.reported = done
	s.touch(l.worker, now)
	return l.deadline, true
}

// noteReject attributes one refused upload to the named worker. It does
// not refresh liveness: a worker whose every contact is a reject should
// still age out of the active set.
func (s *scheduler) noteReject(worker string) {
	if worker == "" {
		return
	}
	w := s.workers[worker]
	if w == nil {
		w = &workerState{cells: make(map[cellKey]bool)}
		s.workers[worker] = w
	}
	w.rejects++
}

// workerDetail snapshots the per-worker status rows, sorted by name:
// heartbeat age, active-lease load, the oldest active lease's age, and
// the refused-upload count.
func (s *scheduler) workerDetail(now time.Time) []WorkerStatus {
	names := make([]string, 0, len(s.workers))
	for n := range s.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]WorkerStatus, 0, len(names))
	for _, n := range names {
		w := s.workers[n]
		ws := WorkerStatus{
			Name:                n,
			HeartbeatAgeSeconds: now.Sub(w.lastSeen).Seconds(),
			UploadRejects:       w.rejects,
		}
		for _, l := range s.leases {
			if l.worker != n || l.phase != leaseActive {
				continue
			}
			ws.ActiveLeases++
			ws.LeasedRuns += l.end - l.start
			ws.ReportedDone += l.reported
			if age := now.Sub(l.issued).Seconds(); age > ws.LeaseAgeSeconds {
				ws.LeaseAgeSeconds = age
			}
		}
		out = append(out, ws)
	}
	return out
}

// leasedRuns counts runs currently under an active lease.
func (s *scheduler) leasedRuns() int {
	n := 0
	for _, l := range s.leases {
		if l.phase == leaseActive {
			n += l.end - l.start
		}
	}
	return n
}

// AffinityStats is the scheduler-level view of fleet world-cache reuse:
// of all distinct-cell lease assignments, how many landed on a worker
// that had already flown the cell (and so holds its world hot).
type AffinityStats struct {
	Hits, Misses int
}

// HitRate returns hits/(hits+misses), or 0 with no assignments.
func (a AffinityStats) HitRate() float64 {
	if a.Hits+a.Misses == 0 {
		return 0
	}
	return float64(a.Hits) / float64(a.Hits+a.Misses)
}

func (s *scheduler) affinityStats() AffinityStats {
	return AffinityStats{Hits: s.affHits, Misses: s.affMisses}
}

// SimulateScheduling replays a campaign's lease assignment across a pull
// loop of nWorkers identical workers without executing any runs, and
// returns the affinity stats the schedule would produce. Workers pull in
// a deterministically shuffled order each round — real fleets never pull
// in lockstep, and a fixed round-robin would hand the baseline policy
// accidental affinity by phase alignment (the same worker meets the same
// cell in every generation block). This is the apples-to-apples harness
// behind the throughput snapshot's cell-affinity measurement: same spec,
// same lease sizing, affine routing on versus random segment choice.
func SimulateScheduling(spec campaign.Spec, nWorkers int, affinity bool) (AffinityStats, error) {
	runs, err := spec.Runs()
	if err != nil {
		return AffinityStats{}, err
	}
	done := make([]bool, len(runs))
	s := newScheduler(runs, func(i int) bool { return done[i] }, time.Hour, 0, 0, affinity)
	now := time.Unix(0, 0)
	names := make([]string, nWorkers)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	// Workers join (and so count for lease sizing) before the first lease
	// is cut, as real fleets do.
	for _, n := range names {
		s.touch(n, now)
	}
	jitter := rand.New(rand.NewSource(2))
	for {
		progressed := false
		jitter.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for _, n := range names {
			l := s.lease(n, now)
			if l == nil {
				continue
			}
			progressed = true
			for i := l.start; i < l.end; i++ {
				done[i] = true
			}
			s.release(l)
		}
		if !progressed {
			break
		}
	}
	return s.affinityStats(), nil
}
