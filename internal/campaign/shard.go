package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Distribution layer: a campaign Spec is already the wire format — worlds
// regenerate deterministically from grid indices and seeds derive from
// cells, so distributing a campaign means shipping runs, not data.
//
// The coordinator (internal/coord) leases contiguous slices of the
// canonical run order to pulling workers, and each worker turns a lease's
// resolved runs back into an executable Spec with RunsSpec. Once every run
// has merged, the coordinator persists the campaign's aggregates as one
// ShardResult — the campaign result file that `-serve -out` writes and
// `-merge` reads back, bit-identical to a single uninterrupted run because
// aggregation is exact and order-independent.

// RunsSpec builds an executable sub-campaign Spec from resolved runs plus
// a timing profile — the coordinator lease format. Seeds are restored
// from the runs by value (not re-derived), so the sub-spec executes
// identically even when the originating Spec used a custom Seed function.
// The runs' canonical Index values are NOT preserved: the sub-spec
// re-enumerates from 0, and callers that need canonical indices must map
// back through the run list they passed in.
func RunsSpec(runs []Run, timing scenario.Timing) Spec {
	cells := make([]Cell, len(runs))
	seeds := make(map[Cell]int64, len(runs))
	for i, ru := range runs {
		cells[i] = ru.Cell
		seeds[ru.Cell] = ru.Seed
	}
	return Spec{
		Cells:  cells,
		Timing: timing,
		// Seed is always a pure function of the cell (the canonical
		// GridSeed or the originating custom Seed func), so a by-cell
		// lookup reproduces it faithfully.
		Seed: func(c Cell) int64 { return seeds[c] },
	}
}

// ShardResult is the campaign result file: a whole campaign's merged
// per-generation aggregates plus the identity a reader checks. The range
// fields describe the campaign as its one and only part — index 0 of
// count 1, runs [0, total) — and ReadShardResult refuses any other range.
type ShardResult struct {
	Index int    `json:"index"`
	Count int    `json:"count"`
	Start int    `json:"start"`
	End   int    `json:"end"`
	Total int    `json:"total"`
	Sig   string `json:"spec"`
	// Profile is the campaign's catalog profile (catalog.Campaign.Profile:
	// "" for sil, omitted), so a tool's -merge can refuse another tool's
	// campaign instead of printing it as its own.
	Profile string `json:"profile,omitempty"`
	// Aggregates holds the per-generation rows with their exact
	// accumulators (scenario's Aggregate codec), so a decoded row digests
	// and prints bit-identically to the live one.
	Aggregates map[core.Generation]*scenario.Aggregate `json:"aggregates"`
}

// AggregatesDigest is the campaign-level identity check: the hex sha256
// over the per-generation aggregate digests in ascending generation order.
// Two campaigns over the same grid digest identically however they were
// executed — sequentially, across any worker count, resumed from a
// checkpoint, or merged from a coordinator's leases.
func AggregatesDigest(aggs map[core.Generation]*scenario.Aggregate) string {
	gens := make([]core.Generation, 0, len(aggs))
	for gen := range aggs {
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	h := sha256.New()
	for _, gen := range gens {
		fmt.Fprintf(h, "%d:%s\n", gen, aggs[gen].Digest())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Digest returns the AggregatesDigest of the report's aggregate rows.
func (r *Report) Digest() string { return AggregatesDigest(r.Aggregates) }

// WriteShardResult persists a campaign result as an indented JSON file.
func WriteShardResult(path string, sr *ShardResult) error {
	b, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadShardResult loads a campaign result file written by
// WriteShardResult. It refuses a file that does not cover the whole
// campaign: the range must be index 0 of 1 over runs [0, total), and the
// rows must be non-null and hold exactly total runs between them.
func ReadShardResult(path string) (*ShardResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr ShardResult
	if err := json.Unmarshal(b, &sr); err != nil {
		return nil, fmt.Errorf("campaign: result file %s: %w", path, err)
	}
	if err := sr.whole(); err != nil {
		return nil, fmt.Errorf("campaign: result file %s: %w", path, err)
	}
	return &sr, nil
}

// whole checks that the result covers its entire campaign.
func (sr *ShardResult) whole() error {
	if sr.Index != 0 || sr.Count != 1 || sr.Start != 0 || sr.End != sr.Total || sr.Total < 1 {
		return fmt.Errorf("covers runs [%d,%d) of %d as part %d of %d, want the whole campaign",
			sr.Start, sr.End, sr.Total, sr.Index+1, sr.Count)
	}
	runs := 0
	for gen, agg := range sr.Aggregates {
		if agg == nil {
			return fmt.Errorf("aggregate row %d is null", gen)
		}
		// Bounded per row, so a hostile count cannot overflow the sum.
		if agg.Runs < 1 || agg.Runs > sr.Total-runs {
			return fmt.Errorf("aggregate rows do not hold the campaign's %d runs", sr.Total)
		}
		runs += agg.Runs
	}
	if runs != sr.Total {
		return fmt.Errorf("aggregate rows hold %d of the campaign's %d runs", runs, sr.Total)
	}
	return nil
}
