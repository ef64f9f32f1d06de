package faultsearch

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/scenario"
)

// CellProber flies probes for one grid cell through campaign.Execute —
// the same single funnel (scenario.RunGridCell) every sweep, checkpoint
// resume and fleet lease uses. That buys the search two properties
// for free: probe results are bit-identical to any campaign run of the
// same (seed, plan), and consecutive probes share the cell's immutable
// world through worldgen.Shared, so only the first probe pays world
// generation.
type CellProber struct {
	// Cell pins the probed grid cell; the run seed is the canonical
	// scenario.GridSeed of the cell unless Seed overrides it (the same
	// override hook campaign.Spec has, so hilbench-style bespoke seed
	// derivations can be searched too).
	Cell campaign.Cell
	Seed func(campaign.Cell) int64
	// Timing is the deployment profile under test; Timing.Faults is
	// overwritten per probe.
	Timing scenario.Timing
}

// Probe implements Prober: one deterministic closed-loop mission of the
// cell under plan.
func (cp *CellProber) Probe(ctx context.Context, plan *fault.Plan) (scenario.Result, error) {
	spec := campaign.Spec{
		Cells:  []campaign.Cell{cp.Cell},
		Timing: cp.Timing,
		Seed:   cp.Seed,
	}
	spec.Timing.Faults = plan
	rep, err := campaign.Execute(ctx, spec, campaign.Options{Workers: 1})
	if err != nil {
		return scenario.Result{}, err
	}
	if len(rep.Results) != 1 {
		return scenario.Result{}, fmt.Errorf("faultsearch: probe executed %d runs, want 1", len(rep.Results))
	}
	return rep.Results[0], nil
}
