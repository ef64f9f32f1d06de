// Command hilbench regenerates the paper's HIL evaluation (RQ2):
//
//	Table III — MLS-V3's success / collision / poor-landing rates when the
//	            landing stack runs under the Jetson Nano MAXN compute
//	            budget: stretched perception and replanning cadences plus
//	            sense-to-act latency.
//
// It also reports the resource picture (CPU saturation, ~2.2 GB of the
// 2.9 GB available) that §V-B attributes the degradation to.
//
// The sweep is the catalog's hil-maxn campaign (-mode 5w: hil-5w), run
// across -workers cores. The campaign's per-run hook charges every run's
// module work to the platform, so each run's Result carries its own
// resource summary and the Table III resource lines are pooled from the
// Results like every other row.
//
// Campaigns at scale: -checkpoint journals finished runs for crash-safe
// resume; -serve coordinates the campaign across -join workers (the custom
// HIL seed derivation ships inside each lease, by value), and with
// -checkpoint the coordinator journals every run it merges. Run this
// command with the same grid flags and that journal to print the served
// campaign again. Every row, resource lines included, is bit-identical to
// one uninterrupted run in all cases; the fault timeline is read from the
// first faulted run, re-flown, wherever the campaign's runs are at hand
// (fresh, resumed, or replayed from the coordinator's journal).
package main

import (
	"flag"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

func main() {
	maps := flag.Int("maps", 10, "number of benchmark maps to run (1-10)")
	scenarios := flag.Int("scenarios", worldgen.NumScenariosPerMap, "scenarios per map (1-10)")
	repeats := flag.Int("repeats", 1, "sensor-seed repetitions per scenario")
	mode := flag.String("mode", "maxn", "power mode: maxn or 5w")
	cf := cliutil.Register(flag.CommandLine)
	verbose := flag.Bool("v", false, "print per-run results")
	flag.Parse()
	if err := cf.Validate(); err != nil {
		cliutil.Fatal("hilbench", 2, err)
	}
	if err := cf.StartDebug("hilbench"); err != nil {
		cliutil.Fatal("hilbench", 1, err)
	}

	c, err := powerMode(*mode)
	if err != nil {
		cliutil.Fatal("hilbench", 2, err)
	}
	if cf.Join != "" {
		// A worker needs no spec of its own: leases carry the campaign and
		// name the run-configuration profile to apply.
		cf.Distributed("hilbench", campaign.Spec{}, "")
		dumpMetrics(cf)
		return
	}

	knobs, err := cf.Knobs()
	if err != nil {
		cliutil.Fatal("hilbench", 2, err)
	}
	// The fault plan rides the HIL timing into the campaign (the
	// comms-blackout kind models exactly this tier's link-loss mode), and
	// so does the fleet spec (a compute-starved tier flying a formation is
	// the worst-case airspace picture).
	spec, err := c.Spec(catalog.Grid{Maps: *maps, Scenarios: *scenarios, Repeats: *repeats}, knobs)
	if err != nil {
		cliutil.Fatal("hilbench", 2, err)
	}
	plan, tm := c.Plan(), spec.Timing

	fmt.Printf("HIL benchmark on %s: CPU demand %.0f%% of capacity\n", c.Platform.Name, 100*plan.CPUDemand)
	fmt.Printf("  detect period %.2fs (SIL %.2fs), replan interval %.2fs (SIL 0.60s), latency %d ticks\n",
		tm.DetectPeriod, scenario.SILTiming().DetectPeriod,
		plan.ReplanInterval, tm.CommandLatencyTicks)
	if cf.Pipeline {
		fmt.Printf("  pipelined perception: on — emergent delivery latency %d ticks (from %s stage cost)\n",
			tm.PipelineLatencyTicks, c.Platform.Name)
	}
	if tm.Faults.Active() {
		fmt.Printf("  fault plan: %s\n", tm.Faults)
	}
	if tm.Fleet.Active() {
		fmt.Printf("  fleet: %d drones per run\n", tm.Fleet.Size)
	}
	if cf.Fast {
		// Fast digests are only comparable to other fast digests — see
		// silbench -verify-fast for the tolerance contract.
		fmt.Printf("  fast engine mode: on (digests comparable to fast runs only)\n")
	}
	fmt.Println()

	// Fleet mode: workers resolve the campaign's profile name to the same
	// replan/guard cadences and platform this process would apply locally.
	if aggs, handled := cf.Distributed("hilbench", spec, c.Profile()); handled {
		printReport(c, aggs, nil)
		dumpMetrics(cf)
		return
	}

	opts := cf.Options("hilbench")
	if *verbose {
		opts.OnResult = func(ru campaign.Run, r scenario.Result) {
			fmt.Printf("  map%d sc%d rep%d: %s (%.1fs)\n",
				ru.MapIdx, ru.ScenarioIdx, ru.Rep, r.Outcome, r.Duration)
		}
	}

	report := cf.Execute("hilbench", spec, opts)

	fmt.Printf("campaign done: %s\n", cliutil.RunsSummary(report))
	hits, misses, resident := worldgen.Shared.Stats()
	fmt.Printf("world cache: %d hits / %d generations, %d worlds resident\n",
		hits, misses, resident)
	fmt.Printf("aggregate digest: %s\n", report.Digest())
	// A run that re-flies differently (a journal written by an older
	// build) fails the tool, after the tables.
	timeline, err := cliutil.FaultTimeline(spec, report.Results)
	printReport(c, report.Aggregates, timeline)
	if err != nil {
		cliutil.Fatal("hilbench", 1, err)
	}
	dumpMetrics(cf)
}

// powerMode maps -mode to its catalog campaign.
func powerMode(mode string) (*catalog.Campaign, error) {
	switch mode {
	case "maxn":
		return catalog.HILMAXN, nil
	case "5w":
		return catalog.HIL5W, nil
	}
	return nil, fmt.Errorf("-mode %q: want maxn or 5w", mode)
}

// dumpMetrics honors -metrics on the way out.
func dumpMetrics(cf *cliutil.CampaignFlags) {
	if err := cf.DumpMetrics("hilbench"); err != nil {
		cliutil.Fatal("hilbench", 1, err)
	}
}

// printReport prints every row of the campaign's MLS-V3 aggregate:
// Table III, the fleet and fault rows, the Table III resource summary
// and the auxiliary figures. The local, resumed and -serve paths all
// print through it, so they print the same lines; timeline, the fault
// timeline of one re-flown run, exists only where the campaign's runs are
// at hand.
func printReport(c *catalog.Campaign, aggs map[core.Generation]*scenario.Aggregate, timeline []obs.Event) {
	agg := aggs[core.V3]
	if agg == nil {
		cliutil.Fatal("hilbench", 1, fmt.Errorf("the campaign carries no MLS-V3 aggregate"))
	}
	fmt.Println("\nTable III — Experiment Results of HIL Testing")
	fmt.Printf("%-10s %-22s %-26s %-26s\n", "System", "Successful Landing", "Failure (Collision)", "Failure (Poor Landing)")
	fmt.Printf("%-10s %20.2f%% %24.2f%% %24.2f%%\n",
		agg.System, agg.SuccessRate(), agg.CollisionRate(), agg.PoorLandingRate())
	cliutil.PrintFleetAndDependability(*agg)
	cliutil.PrintEvents("fault timeline of the first monitored run:", timeline)
	// A run replayed from a journal written before runs carried a
	// resource summary has none: the summary then counts the missing runs
	// instead of averaging the rest.
	fmt.Printf("\nResource summary (%s):\n", c.Platform.Name)
	if missing := agg.Runs - agg.PlatformRuns; missing > 0 {
		fmt.Printf("  none: %d of %d runs carry no resource summary (replayed from a journal written before runs recorded one)\n",
			missing, agg.Runs)
	} else {
		fmt.Printf("  mean CPU %.0f%% of %d00%% aggregate; mean RAM %.2f GB, peak %.2f GB of %.1f GB available\n",
			agg.MeanCPU, c.Platform.Cores,
			agg.MeanMemMB/1000, agg.PeakMemMB/1000, float64(c.Platform.MemTotalMB)/1000)
	}
	fmt.Printf("\nAuxiliary: FNR %.2f%%, mean landing error %.2f m\n",
		100*agg.FalseNegativeRate, agg.MeanLandingError)
}
