// Package coord is the fleet transport for campaigns: an HTTP/JSON
// work-stealing coordinator (served by cmd/campaignd or any bench tool's
// -serve flag) and the worker loop the tools join with -join.
//
// The deterministic core makes the protocol almost embarrassingly simple.
// Every run is a pure function of (seed, Spec) and aggregation is exact
// and order-independent, so at-least-once dispatch is trivially correct:
// a lost worker's lease is simply handed to someone else, and if the
// "lost" worker was merely slow, its late duplicate uploads verify
// bit-identical and fold in as no-ops. The coordinator therefore never
// needs consensus, fencing, or exactly-once bookkeeping — only digests.
//
// Lifecycle of a lease:
//
//	worker                     coordinator
//	  |--- POST /v1/lease ---------->|   cut an adaptive-size range off
//	  |<-- 200 Lease (runs, TTL) ----|   the free list (cell-affine)
//	  |    execute through the       |
//	  |    engine, journal on disk   |
//	  |--- POST /v1/heartbeat ------>|   deadline extended
//	  |--- POST /v1/results -------->|   digest-verify + merge (partial)
//	  |--- POST /v1/results?final -->|   lease aggregate digest checked,
//	  |                              |   lease retired
//	  |--- POST /v1/lease ---------->|   next lease, or 204 (nothing
//	  |                              |   free yet) or 410 (campaign done)
//
// A worker that misses its deadline is expired on the next sweep: the
// incomplete part of its range returns to the free list (completed runs
// are punched out) and is re-leased — preferentially back to a worker
// that already holds the affected grid cells' worlds in cache.
package coord

import (
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// API endpoints (versioned so the wire format can evolve).
const (
	PathLease     = "/v1/lease"
	PathResults   = "/v1/results"
	PathHeartbeat = "/v1/heartbeat"
	PathStatus    = "/v1/status"
)

// SigHeader carries the worker's resolved campaign signature on result
// uploads; a mismatch against the coordinator's signature means the two
// builds resolve the Spec differently (version skew) and nothing the
// worker computed can be merged.
const SigHeader = "X-Campaign-Sig"

// LeaseRequest is the body of POST /v1/lease: a pull request for work.
type LeaseRequest struct {
	// Worker names the requesting worker (stable across reconnects, so
	// cell-affinity history survives a worker restart).
	Worker string `json:"worker"`
}

// Lease is one contiguous slice of the campaign's canonical run order,
// leased to one worker until Deadline. It is self-contained: resolved
// runs (cells plus per-run seeds by value), the timing profile, and the
// campaign signature.
type Lease struct {
	ID  int64  `json:"id"`
	Sig string `json:"sig"`
	// SubSig is the coordinator's Spec.Signature over the lease's own
	// sub-spec (RunsSpec of Runs and Timing). The worker recomputes it
	// locally and refuses the lease on mismatch: if two builds resolve the
	// same runs to different signatures they would also disagree on what
	// to fly, and the skew is caught before any compute is spent.
	SubSig string `json:"sub_sig"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
	Total  int    `json:"total"`
	// Runs carry their canonical campaign indices in Run.Index.
	Runs   []campaign.Run  `json:"runs"`
	Timing scenario.Timing `json:"timing"`
	// Profile names the catalog campaign whose Configure hook the worker
	// must apply (see catalog.Hook); empty means plain grid runs.
	Profile string `json:"profile,omitempty"`
	// TTLSeconds is how long the coordinator will wait between heartbeats
	// before declaring the lease lost and re-dispatching it;
	// HeartbeatSeconds is the cadence the worker should beat at.
	TTLSeconds       float64 `json:"ttl_seconds"`
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
}

// Spec reconstructs the executable sub-campaign for the lease's runs.
// Run indices are lease-local afterwards; map back through Lease.Runs.
func (l Lease) Spec() campaign.Spec {
	return campaign.RunsSpec(l.Runs, l.Timing)
}

// TTL returns the lease deadline interval as a duration.
func (l Lease) TTL() time.Duration { return time.Duration(l.TTLSeconds * float64(time.Second)) }

// Heartbeat is the body of POST /v1/heartbeat.
type Heartbeat struct {
	Lease  int64  `json:"lease"`
	Worker string `json:"worker"`
	// Done is the worker's count of finished runs in this lease, for
	// /v1/status progress attribution.
	Done int `json:"done"`
}

// HeartbeatReply acknowledges a beat.
type HeartbeatReply struct {
	// DeadlineSeconds is how far from now the extended deadline sits.
	DeadlineSeconds float64 `json:"deadline_seconds"`
}

// Results uploads are not a JSON object but a gzip stream of JSONL
// campaign.RunEntry lines — the checkpoint journal's own format, so a
// worker streams its journal verbatim. Identity and disposition ride the
// query string (lease, worker, final, digest) and the SigHeader header.

// ResultsReply summarizes one accepted upload.
type ResultsReply struct {
	// Accepted counts entries merged for the first time; Duplicates
	// counts verified re-deliveries of already-merged runs.
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	// Done/Total is campaign-level progress after this upload.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Status is the GET /v1/status payload: live campaign progress.
type Status struct {
	Total          int     `json:"total"`
	Done           int     `json:"done"`
	Leased         int     `json:"leased"`  // runs under an active lease
	Pending        int     `json:"pending"` // runs free for dispatch
	Workers        int     `json:"workers"` // workers seen within the activity window
	Leases         int     `json:"leases"`  // leases issued so far
	Expired        int     `json:"expired"` // leases lost and re-dispatched
	Dups           int     `json:"duplicates"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// RunsPerSec is the mean merge throughput of this process: runs its
	// journal held at start count in Done but not here. ETASeconds
	// extrapolates from it; both are 0 until this process merges a run,
	// and the ETA is 0 once done.
	ETASeconds float64 `json:"eta_seconds"`
	RunsPerSec float64 `json:"runs_per_sec"`
	Complete   bool    `json:"complete"`
	// Digest is the campaign AggregatesDigest, present once complete.
	Digest string `json:"digest,omitempty"`
	// AffinityHits/Misses count distinct-cell lease assignments that
	// did/did not land on a worker that had flown the cell before — the
	// scheduler-level view of world-cache reuse across the fleet.
	AffinityHits   int `json:"affinity_hits"`
	AffinityMisses int `json:"affinity_misses"`
	// WorkersDetail carries one row per worker ever seen, sorted by name.
	WorkersDetail []WorkerStatus `json:"workers_detail,omitempty"`
}

// WorkerStatus is one worker's row in Status: how recently it was heard
// from, what it currently holds, and how many of its uploads were refused.
type WorkerStatus struct {
	Name string `json:"name"`
	// HeartbeatAgeSeconds is the time since the worker last pulled a lease
	// or heartbeat — the liveness signal the expiry sweep runs on.
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
	// ActiveLeases/LeasedRuns are the worker's current load;
	// LeaseAgeSeconds is the age of its oldest active lease.
	ActiveLeases    int     `json:"active_leases"`
	LeasedRuns      int     `json:"leased_runs"`
	LeaseAgeSeconds float64 `json:"lease_age_seconds"`
	// ReportedDone sums the finished-run counts from the worker's latest
	// heartbeat on each active lease.
	ReportedDone int `json:"reported_done"`
	// UploadRejects counts this worker's result uploads refused whole.
	UploadRejects int `json:"upload_rejects,omitempty"`
}
