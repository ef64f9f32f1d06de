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
// across -workers cores; each run gets its own hil.Monitor chained behind
// the campaign's per-run configure hook, so the resource series are
// collected exactly as in the sequential loop.
//
// Campaigns at scale: -checkpoint journals finished runs for crash-safe
// resume; -serve coordinates the campaign across -join workers (the custom
// HIL seed derivation ships inside each lease, by value) and -serve -out
// persists the merged result for -merge to print again. Outcome
// aggregates are bit-identical to one uninterrupted run in all cases;
// resource series exist only for runs executed in this process.
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
	"repro/internal/telemetry"
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

	if cf.Merge {
		printAggregates(cliutil.Merge("hilbench", "runs", flag.Args()))
		return
	}
	if cf.Join != "" {
		// A worker needs no spec of its own: leases carry the campaign and
		// name the run-configuration profile to apply.
		cf.Distributed("hilbench", campaign.Spec{}, "")
		dumpMetrics(cf)
		return
	}

	c, err := powerMode(*mode)
	if err != nil {
		cliutil.Fatal("hilbench", 2, err)
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
	// replan/guard cadences this process would apply locally.
	if aggs, handled := cf.Distributed("hilbench", spec, c.Profile()); handled {
		printAggregates(aggs)
		dumpMetrics(cf)
		return
	}

	// One monitor per run behind the campaign's hook. The flight recorder
	// chains behind both (every event reaches each), one header + events
	// block per run in canonical order.
	mons := c.Monitor(&spec)
	opts := cf.Options("hilbench")
	if *verbose {
		opts.OnResult = func(ru campaign.Run, r scenario.Result) {
			fmt.Printf("  map%d sc%d rep%d: %s (%.1fs)\n",
				ru.MapIdx, ru.ScenarioIdx, ru.Rep, r.Outcome, r.Duration)
		}
	}

	report := cf.Execute("hilbench", spec, opts)

	agg := *report.Aggregates[core.V3]
	runs := agg.Runs
	var meanCPU, meanMem, peakMem float64
	monN := 0
	for _, mon := range mons {
		if mon == nil {
			continue
		}
		meanCPU += mon.MeanCPU()
		meanMem += mon.MeanMemMB()
		if _, m := mon.Peak(); m > peakMem {
			peakMem = m
		}
		monN++
	}

	fmt.Printf("completed %d runs in %.1fs wall (%.1fs of runs on %d workers, %.2fx speedup vs -workers=1)\n",
		runs, report.Wall.Seconds(), report.Busy.Seconds(), report.Workers, report.Speedup())
	hits, misses, resident := worldgen.Shared.Stats()
	fmt.Printf("world cache: %d hits / %d generations, %d worlds resident\n",
		hits, misses, resident)
	if cf.Pipeline {
		ps := scenario.ReadPipelineStats()
		fmt.Printf("%s (%d runs, %d perception batches)\n",
			telemetry.OverlapSummary(ps.StageBusy, ps.Stall, ps.Wall), ps.Runs, ps.Batches)
		var batches, detects, depths, maxDelay int
		var delaySum float64
		for _, mon := range mons {
			if mon == nil {
				continue
			}
			b, de, dp, mean, mx := mon.StageStats()
			batches += b
			detects += de
			depths += dp
			delaySum += mean * float64(b)
			if mx > maxDelay {
				maxDelay = mx
			}
		}
		if batches > 0 {
			fmt.Printf("stage timing: %d batches (%d detect, %d depth), mean delivery %.1f ticks, max %d\n",
				batches, detects, depths, delaySum/float64(batches), maxDelay)
		}
	}
	fmt.Printf("aggregate digest: %s\n\n", report.Digest())
	printTableIII(agg)
	printFleetAndDependability(agg)
	if agg.DependabilityString() != "" {
		for _, mon := range mons {
			if mon != nil && len(mon.FaultEvents()) > 0 {
				fmt.Println("fault timeline of the first monitored run:")
				for _, ev := range mon.FaultEvents() {
					fmt.Println(obs.FormatEvent(ev))
				}
				break
			}
		}
	}

	if monN > 0 {
		scope := ""
		if monN < runs {
			scope = fmt.Sprintf(" over the %d runs executed this session", monN)
		}
		fmt.Printf("\nResource summary (%s)%s:\n", c.Platform.Name, scope)
		fmt.Printf("  mean CPU %.0f%% of %d00%% aggregate; mean RAM %.2f GB, peak %.2f GB of %.1f GB available\n",
			meanCPU/float64(monN), c.Platform.Cores,
			meanMem/float64(monN)/1000, peakMem/1000, float64(c.Platform.MemTotalMB)/1000)
	}
	fmt.Printf("\nAuxiliary: FNR %.2f%%, mean landing error %.2f m\n",
		100*agg.FalseNegativeRate, agg.MeanLandingError)
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

// printAggregates is the report of -serve and -merge: every row the
// campaign's MLS-V3 aggregate holds. Resource series are not among them;
// they exist only in the process that flew the runs.
func printAggregates(aggs map[core.Generation]*scenario.Aggregate) {
	agg := aggs[core.V3]
	if agg == nil {
		cliutil.Fatal("hilbench", 1, fmt.Errorf("the campaign carries no MLS-V3 aggregate"))
	}
	fmt.Println()
	printTableIII(*agg)
	printFleetAndDependability(*agg)
	fmt.Printf("\nAuxiliary: FNR %.2f%%, mean landing error %.2f m\n",
		100*agg.FalseNegativeRate, agg.MeanLandingError)
	fmt.Println("(resource series live on the machines that executed each shard)")
}

func printTableIII(agg scenario.Aggregate) {
	fmt.Println("Table III — Experiment Results of HIL Testing")
	fmt.Printf("%-10s %-22s %-26s %-26s\n", "System", "Successful Landing", "Failure (Collision)", "Failure (Poor Landing)")
	fmt.Printf("%-10s %20.2f%% %24.2f%% %24.2f%%\n",
		agg.System, agg.SuccessRate(), agg.CollisionRate(), agg.PoorLandingRate())
}

// printFleetAndDependability prints the airspace and fault-campaign rows;
// each is silent when its knob is off.
func printFleetAndDependability(agg scenario.Aggregate) {
	if row := agg.FleetString(); row != "" {
		fmt.Println("\nAirspace deconfliction (fleet campaign)")
		fmt.Println(row)
	}
	if row := agg.DependabilityString(); row != "" {
		fmt.Println("\nDependability (fault campaign)")
		fmt.Println(row)
	}
}
