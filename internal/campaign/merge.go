package campaign

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Digest-verified merge for at-least-once result streams.
//
// A live coordinator cannot assume that each run arrives exactly once:
// leases expire and get re-dispatched, slow workers upload results for
// runs another worker already finished, and a flaky worker may upload
// garbage. Merger is the aggregation core that makes all of that safe —
// it folds individual RunEntry uploads (the checkpoint journal's own line
// format, so workers stream journal entries verbatim) into per-generation
// aggregates exactly once per run, verifying every entry's digest on the
// way in. Because aggregation is exact and order-independent, the merged
// rows are bit-identical to an uninterrupted single-machine run of the
// same Spec, whatever the interleaving of workers, re-dispatches and
// duplicate uploads.

// RunEntry is one finished run in wire/journal form: the run's canonical
// index, the sha256 digest of its result, and the result itself encoded
// with the exact codec. It is both the checkpoint journal's line format
// and the coordinator upload format, so a worker can stream its journal
// to the coordinator without re-encoding.
type RunEntry struct {
	Index  int             `json:"i"`
	Digest string          `json:"d"`
	Result scenario.Result `json:"r"`
}

// Verify integrity-checks the entry against the campaign's run count: the
// index must be in range and the stored digest must match the result's
// recomputed digest. A mismatch means the entry was corrupted in flight
// (or fabricated) — the result cannot be trusted.
func (e RunEntry) Verify(total int) error {
	if e.Index < 0 || e.Index >= total {
		return fmt.Errorf("campaign: run index %d out of range [0,%d)", e.Index, total)
	}
	if d := e.Result.Digest(); d != e.Digest {
		return fmt.Errorf("campaign: run %d: entry digest mismatch (stored %.12s…, computed %.12s…)",
			e.Index, e.Digest, d)
	}
	return nil
}

// Merger accumulates digest-verified RunEntry streams into a campaign's
// per-generation aggregates, accepting each run exactly once. Safe for
// concurrent use.
type Merger struct {
	mu      sync.Mutex
	runs    []Run
	sig     string
	done    []bool
	digests []string
	aggs    map[core.Generation]*scenario.Aggregate
	nDone   int
	dups    int
}

// NewMerger resolves the spec and returns an empty merger bound to it.
func NewMerger(spec Spec) (*Merger, error) {
	runs, err := spec.Runs()
	if err != nil {
		return nil, err
	}
	sig, err := spec.Signature()
	if err != nil {
		return nil, err
	}
	return &Merger{
		runs:    runs,
		sig:     sig,
		done:    make([]bool, len(runs)),
		digests: make([]string, len(runs)),
		aggs:    make(map[core.Generation]*scenario.Aggregate),
	}, nil
}

// Sig returns the campaign signature the merger is bound to; uploads from
// a worker whose resolved spec signs differently must be refused before
// they reach Accept.
func (m *Merger) Sig() string { return m.sig }

// Runs returns the campaign's resolved canonical run list. Callers must
// treat it as read-only.
func (m *Merger) Runs() []Run { return m.runs }

// Total returns the campaign's run count.
func (m *Merger) Total() int { return len(m.runs) }

// Done returns how many distinct runs have been accepted.
func (m *Merger) Done() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nDone
}

// Duplicates returns how many accepted entries were re-deliveries of an
// already-merged run (the at-least-once overhead, not an error).
func (m *Merger) Duplicates() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dups
}

// Complete reports whether every run of the campaign has been merged.
func (m *Merger) Complete() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nDone == len(m.runs)
}

// IsDone reports whether run index i has been merged.
func (m *Merger) IsDone(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return i >= 0 && i < len(m.done) && m.done[i]
}

// Accept verifies and folds one uploaded entry. Re-deliveries of a run
// that already merged are idempotent when bit-identical (dup=true, nil
// error) — the at-least-once luxury the deterministic engine buys — and a
// hard error when they conflict, because two different results for one
// (seed, Spec) run mean a worker is broken and nothing it sent can be
// trusted.
func (m *Merger) Accept(e RunEntry) (dup bool, err error) {
	if err := e.Verify(len(m.runs)); err != nil {
		return false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done[e.Index] {
		if m.digests[e.Index] != e.Digest {
			return false, fmt.Errorf(
				"campaign: run %d: conflicting result (merged %.12s…, uploaded %.12s…) — runs are deterministic, a disagreeing worker is corrupt",
				e.Index, m.digests[e.Index], e.Digest)
		}
		m.dups++
		return true, nil
	}
	gen := m.runs[e.Index].Gen
	agg := m.aggs[gen]
	if agg == nil {
		agg = scenario.NewAggregate(gen.String())
		m.aggs[gen] = agg
	}
	agg.Add(e.Result)
	m.done[e.Index] = true
	m.digests[e.Index] = e.Digest
	m.nDone++
	return false, nil
}

// Aggregates returns the merged per-generation rows. The returned map and
// rows are the merger's own — read them only once no more Accept calls
// can race (campaign complete), or via Digest for a point-in-time check.
func (m *Merger) Aggregates() map[core.Generation]*scenario.Aggregate {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aggs
}

// Digest returns the AggregatesDigest over the rows merged so far; once
// Complete, it equals the digest of an uninterrupted single-machine run
// of the same Spec.
func (m *Merger) Digest() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return AggregatesDigest(m.aggs)
}
