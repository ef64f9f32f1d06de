package campaign

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// TestCampaignMatchesNaiveSweep is the campaign-level determinism guard:
// a parallel campaign over the shared world cache and indexed worlds
// produces exactly the Results and Aggregates of a hand-rolled sequential
// sweep that regenerates an unindexed world for every run.
func TestCampaignMatchesNaiveSweep(t *testing.T) {
	spec := Spec{
		Maps:        []int{0, 6},
		Scenarios:   []int{0, 5},
		Repeats:     2,
		Generations: []core.Generation{core.V3},
		Timing:      scenario.SILTiming(),
	}
	rep, err := Execute(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	naiveAgg := scenario.NewAggregate(core.V3.String())
	var naive []scenario.Result
	for _, mi := range spec.Maps {
		for _, si := range spec.Scenarios {
			for repIdx := 0; repIdx < spec.Repeats; repIdx++ {
				seed := scenario.GridSeed(core.V3, mi, si, repIdx)
				sc, err := worldgen.Generate(mi, si)
				if err != nil {
					t.Fatal(err)
				}
				sc.World.DropIndex()
				sys, err := scenario.BuildSystem(core.V3, sc, seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := scenario.DefaultRunConfig(seed)
				cfg.Timing = spec.Timing
				r := scenario.Run(sc, sys, cfg)
				naive = append(naive, r)
				naiveAgg.Add(r)
			}
		}
	}

	if len(rep.Results) != len(naive) {
		t.Fatalf("result count %d vs %d", len(rep.Results), len(naive))
	}
	for i := range naive {
		if fmt.Sprintf("%+v", rep.Results[i]) != fmt.Sprintf("%+v", naive[i]) {
			t.Fatalf("run %d: campaign and naive sweep differ\ncampaign: %+v\nnaive:    %+v",
				i, rep.Results[i], naive[i])
		}
	}
	got := rep.Aggregates[core.V3]
	if got.Runs != naiveAgg.Runs || got.Success != naiveAgg.Success ||
		got.Collision != naiveAgg.Collision || got.PoorLanding != naiveAgg.PoorLanding ||
		got.FalseNegativeRate != naiveAgg.FalseNegativeRate {
		t.Fatalf("aggregates differ:\ncampaign: %+v\nnaive:    %+v", got, naiveAgg)
	}
}
