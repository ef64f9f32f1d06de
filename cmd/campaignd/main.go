// Command campaignd is the standalone fleet daemon for distributed
// campaigns.
//
//	campaignd -serve :9131 -tool sil -repeats 3        # coordinator
//	campaignd -join http://host:9131 -workers 8        # worker (any campaign)
//
// Serve mode builds the same campaign Spec the named bench tool would run
// locally (sil, hil-maxn, hil-5w or field) and dispatches it to pulling
// workers: adaptive lease sizes, cell-affine placement, heartbeat
// deadlines with automatic re-dispatch, digest-verified merge. Join mode
// is a pure worker — the campaign arrives inside leases, so one campaignd
// binary on every machine can serve or join anything; the bench tools'
// own -serve/-join flags are the same machinery.
//
// The merged campaign persists with -out as a standard shard-result file,
// readable by `<tool> -merge`. Progress is live on GET /v1/status.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hil"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

func main() {
	cf := cliutil.Register(flag.CommandLine)
	tool := flag.String("tool", "sil", "with -serve: which campaign to coordinate (sil, hil-maxn, hil-5w, field)")
	maps := flag.Int("maps", 10, "number of benchmark maps (1-10; sil/hil tools)")
	scenarios := flag.Int("scenarios", worldgen.NumScenariosPerMap, "scenarios per map (1-10; sil/hil tools)")
	repeats := flag.Int("repeats", 1, "sensor-seed repetitions per scenario (sil/hil tools)")
	gens := flag.String("systems", "1,2,3", "comma-separated system generations (sil tool)")
	runs := flag.Int("runs", 20, "number of field flights (field tool)")
	pipelineLag := flag.Int("pipeline-lag", 1, "with -pipeline (sil tool): perception delivery latency in ticks")
	flag.Parse()
	if err := cf.Validate(); err != nil {
		cliutil.Fatal("campaignd", 2, err)
	}
	// The coordinator's listener serves /metrics itself; -debug gives a
	// worker (or a second surface on the coordinator) its own listener.
	if err := cf.StartDebug("campaignd"); err != nil {
		cliutil.Fatal("campaignd", 1, err)
	}

	if cf.Join != "" {
		cf.Distributed("campaignd", campaign.Spec{}, "")
		if err := cf.DumpMetrics("campaignd"); err != nil {
			cliutil.Fatal("campaignd", 1, err)
		}
		return
	}
	if cf.Serve == "" {
		fmt.Fprintln(os.Stderr, "campaignd: need -serve <addr> or -join <url>")
		os.Exit(2)
	}

	spec, profile, err := buildSpec(cf, *tool, *maps, *scenarios, *repeats, *gens, *runs, *pipelineLag)
	if err != nil {
		cliutil.Fatal("campaignd", 2, err)
	}

	aggs, _ := cf.Distributed("campaignd", spec, profile)
	if aggs == nil {
		return
	}
	// Generic per-generation summary; the owning tool's -merge renders the
	// full paper tables from the -out file.
	order := make([]core.Generation, 0, len(aggs))
	for gen := range aggs {
		order = append(order, gen)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, gen := range order {
		a := aggs[gen]
		fmt.Printf("%-10s success %6.2f%%  collision %6.2f%%  poor-landing %6.2f%%  (%d runs)\n",
			a.System, a.SuccessRate(), a.CollisionRate(), a.PoorLandingRate(), a.Runs)
	}
	if err := cf.DumpMetrics("campaignd"); err != nil {
		cliutil.Fatal("campaignd", 1, err)
	}
}

// buildSpec constructs the campaign the named tool would run locally,
// mirroring that tool's spec construction exactly — digests from a fleet
// run must match the single-machine tool's. The fault plan and the fleet
// spec ride every tool's Timing, canonicalized the way the tools do it.
func buildSpec(cf *cliutil.CampaignFlags, tool string, maps, scenarios, repeats int, gens string, runs, pipelineLag int) (campaign.Spec, string, error) {
	if maps < 1 || maps > 10 || scenarios < 1 || scenarios > worldgen.NumScenariosPerMap {
		return campaign.Spec{}, "", fmt.Errorf("-maps must be 1-10 and -scenarios 1-10")
	}
	faultPlan, err := cf.FaultPlan()
	if err != nil {
		return campaign.Spec{}, "", err
	}
	fleet, err := cf.FleetSpec()
	if err != nil {
		return campaign.Spec{}, "", err
	}

	var spec campaign.Spec
	profile := ""
	switch tool {
	case "sil":
		var selected []core.Generation
		for _, c := range gens {
			switch c {
			case '1':
				selected = append(selected, core.V1)
			case '2':
				selected = append(selected, core.V2)
			case '3':
				selected = append(selected, core.V3)
			}
		}
		if len(selected) == 0 {
			return campaign.Spec{}, "", fmt.Errorf("-systems %q selects no generation", gens)
		}
		spec = campaign.Spec{
			Maps:        campaign.Range(maps),
			Scenarios:   campaign.Range(scenarios),
			Repeats:     repeats,
			Generations: selected,
			Timing:      scenario.SILTiming(),
		}
		if cf.Pipeline {
			spec.Timing.Pipeline = scenario.PipelineOn
			spec.Timing.PipelineLatencyTicks = pipelineLag
		}

	case "hil-maxn", "hil-5w":
		hw := hil.JetsonNanoMAXN()
		if tool == "hil-5w" {
			hw = hil.JetsonNano5W()
		}
		costs := hil.NanoCosts()
		plan := hil.DerivePlan(hw, costs)
		if cf.Pipeline {
			plan = hil.DerivePipelinedPlan(hw, costs)
		}
		spec = campaign.Spec{
			Maps:        campaign.Range(maps),
			Scenarios:   campaign.Range(scenarios),
			Repeats:     repeats,
			Generations: []core.Generation{core.V3},
			Timing:      plan.Timing,
			Seed: func(c campaign.Cell) int64 {
				return int64(c.MapIdx)*1_000_003 + int64(c.ScenarioIdx)*9_176 + int64(c.Rep)*77_711 + 300
			},
		}
		profile = tool

	case "field":
		if runs < 1 {
			return campaign.Spec{}, "", fmt.Errorf("-runs must be at least 1")
		}
		plan := hil.DerivePlan(hil.JetsonNanoMAXN(), hil.FieldCosts())
		if cf.Pipeline {
			plan = hil.DerivePipelinedPlan(hil.JetsonNanoMAXN(), hil.FieldCosts())
		}
		fieldMaps := []int{0, 2, 4, 5}
		cells := make([]campaign.Cell, runs)
		for i := range cells {
			cells[i] = campaign.Cell{
				Gen:         core.V3,
				MapIdx:      fieldMaps[i%len(fieldMaps)],
				ScenarioIdx: i % worldgen.NumScenariosPerMap,
				Rep:         i,
			}
		}
		spec = campaign.Spec{
			Cells:  cells,
			Timing: plan.Timing,
			Seed:   func(c campaign.Cell) int64 { return int64(c.Rep)*104_729 + 77 },
		}
		profile = "field"

	default:
		return campaign.Spec{}, "", fmt.Errorf("unknown -tool %q (want sil, hil-maxn, hil-5w or field)", tool)
	}

	if cf.Fast {
		spec.Timing = spec.Timing.WithFast()
	}
	spec.Timing.Faults = faultPlan
	spec.Timing.Fleet = fleet
	spec.Timing = spec.Timing.Canonical()
	return spec, profile, nil
}
