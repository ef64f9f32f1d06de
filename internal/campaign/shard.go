package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
// resolved runs back into an executable Spec with RunsSpec. The
// coordinator journals every run it merges in the checkpoint journal's
// format, so the served campaign's record is the same file a local
// -checkpoint run writes, and replaying it prints the same aggregates
// bit for bit because aggregation is exact and order-independent.

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
