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
// The sweep runs as a campaign across -workers cores; each run gets its
// own hil.Monitor attached through the campaign's per-run configure hook,
// so the resource series are collected exactly as in the sequential loop.
//
// Campaigns at scale: -checkpoint journals finished runs for crash-safe
// resume; -shard i/n + -out run and persist one slice of the grid for
// distributed execution (the custom HIL seed derivation ships inside the
// shard, by value); -merge recombines shard files in any order. Outcome
// aggregates are bit-identical to one uninterrupted run in all cases;
// resource series exist only for runs executed in this process.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hil"
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
		mergeMain(flag.Args())
		return
	}
	if cf.Join != "" {
		// A worker needs no spec of its own: leases carry the campaign and
		// name the run-configuration profile to apply.
		cf.Distributed("hilbench", campaign.Spec{}, "")
		dumpMetrics(cf)
		return
	}

	if *maps < 1 || *maps > 10 || *scenarios < 1 || *scenarios > worldgen.NumScenariosPerMap {
		fmt.Fprintln(os.Stderr, "hilbench: -maps must be 1-10 and -scenarios 1-10")
		os.Exit(2)
	}

	profile := hil.JetsonNanoMAXN()
	coordProfile := "hil-maxn"
	if *mode == "5w" {
		profile = hil.JetsonNano5W()
		coordProfile = "hil-5w"
	}
	costs := hil.NanoCosts()
	plan := hil.DerivePlan(profile, costs)
	if cf.Pipeline {
		plan = hil.DerivePipelinedPlan(profile, costs)
	}

	fmt.Printf("HIL benchmark on %s: CPU demand %.0f%% of capacity\n", profile.Name, 100*plan.CPUDemand)
	fmt.Printf("  detect period %.2fs (SIL %.2fs), replan interval %.2fs (SIL 0.60s), latency %d ticks\n",
		plan.Timing.DetectPeriod, scenario.SILTiming().DetectPeriod,
		plan.ReplanInterval, plan.Timing.CommandLatencyTicks)
	if cf.Pipeline {
		fmt.Printf("  pipelined perception: on — emergent delivery latency %d ticks (from %s stage cost)\n",
			plan.Timing.PipelineLatencyTicks, profile.Name)
	}
	// The fault plan rides the HIL timing profile into the campaign — the
	// comms-blackout kind models exactly this tier's link-loss mode.
	faultPlan, err := cf.FaultPlan()
	if err != nil {
		cliutil.Fatal("hilbench", 2, err)
	}
	plan.Timing.Faults = faultPlan
	if faultPlan.Active() {
		fmt.Printf("  fault plan: %s\n", faultPlan)
	}
	// The fleet spec rides the HIL timing the same way: a compute-starved
	// tier flying a formation is the worst-case airspace picture.
	fleet, err := cf.FleetSpec()
	if err != nil {
		cliutil.Fatal("hilbench", 2, err)
	}
	plan.Timing.Fleet = fleet
	plan.Timing = plan.Timing.Canonical()
	if fleet.Active() {
		fmt.Printf("  fleet: %d drones per run\n", fleet.Size)
	}
	if cf.Fast {
		// WithFast preserves the latency the derived plan already carries
		// (the emergent -pipeline delivery ticks). Fast digests are only
		// comparable to other fast digests — see silbench -verify-fast for
		// the tolerance contract.
		plan.Timing = plan.Timing.WithFast()
		fmt.Printf("  fast engine mode: on (digests comparable to fast runs only)\n")
	}
	fmt.Println()

	spec := campaign.Spec{
		Maps:        campaign.Range(*maps),
		Scenarios:   campaign.Range(*scenarios),
		Repeats:     *repeats,
		Generations: []core.Generation{core.V3},
		Timing:      plan.Timing,
		// The recorded HIL tables derive seeds with a flat +300 offset
		// rather than the SIL grid's generation term.
		Seed: func(c campaign.Cell) int64 {
			return int64(c.MapIdx)*1_000_003 + int64(c.ScenarioIdx)*9_176 + int64(c.Rep)*77_711 + 300
		},
	}

	// Fleet mode: workers resolve the named profile to the same
	// replan/guard cadences this process would apply locally.
	if aggs, handled := cf.Distributed("hilbench", spec, coordProfile); handled {
		if agg := aggs[core.V3]; agg != nil {
			printTableIII(*agg)
			fmt.Println("(resource series live on the worker machines)")
		}
		dumpMetrics(cf)
		return
	}

	activeShard, spec, err := cf.ApplyShard("hilbench", spec)
	if err != nil {
		cliutil.Fatal("hilbench", 2, err)
	}

	// One monitor per run, attached by the configure hook; workers write
	// distinct indices, so the slice needs no lock. Replayed checkpoint
	// runs never call the hook — their slots stay nil and the resource
	// summary covers the runs executed in this process.
	mons := make([]*hil.Monitor, spec.Total())
	spec.Configure = func(ru campaign.Run, sc *worldgen.Scenario, sys *core.System, cfg *scenario.RunConfig) {
		sys.SetReplanInterval(plan.ReplanInterval)
		sys.SetGuardInterval(plan.GuardInterval)
		mon := hil.NewMonitor(profile, costs)
		mons[ru.Index] = mon
		cfg.Observer, cfg.Recorder = mon, mon
	}

	opts := cf.Options("hilbench")
	if *verbose {
		opts.OnResult = func(ru campaign.Run, r scenario.Result) {
			fmt.Printf("  map%d sc%d rep%d: %s (%.1fs)\n",
				ru.MapIdx, ru.ScenarioIdx, ru.Rep, r.Outcome, r.Duration)
		}
	}

	// The flight recorder chains behind the monitor hook (both receive
	// every event) and the ordered result stream: one header + events
	// block per run, canonical order.
	closeTrace, err := cf.WireTrace(&spec, &opts)
	if err != nil {
		cliutil.Fatal("hilbench", 1, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	j, err := cf.OpenCheckpoint(spec)
	if err != nil {
		cliutil.Fatal("hilbench", 1, err)
	}
	if j != nil {
		defer j.Close()
		opts.Checkpoint = j
	}

	report, err := campaign.Execute(ctx, spec, opts)
	if err != nil {
		closeTrace()
		fmt.Fprintln(os.Stderr, "hilbench:", err)
		cf.CheckpointHint("hilbench", ctx.Err() != nil)
		os.Exit(1)
	}
	if err := closeTrace(); err != nil {
		cliutil.Fatal("hilbench", 1, err)
	}

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
	if row := agg.FleetString(); row != "" {
		fmt.Println("\nAirspace deconfliction (fleet campaign)")
		fmt.Println(row)
	}
	if row := agg.DependabilityString(); row != "" {
		fmt.Println("\nDependability (fault campaign)")
		fmt.Println(row)
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
		fmt.Printf("\nResource summary (%s)%s:\n", profile.Name, scope)
		fmt.Printf("  mean CPU %.0f%% of %d00%% aggregate; mean RAM %.2f GB, peak %.2f GB of %.1f GB available\n",
			meanCPU/float64(monN), profile.Cores,
			meanMem/float64(monN)/1000, peakMem/1000, float64(profile.MemTotalMB)/1000)
	}
	fmt.Printf("\nAuxiliary: FNR %.2f%%, mean landing error %.2f m\n",
		100*agg.FalseNegativeRate, agg.MeanLandingError)

	if activeShard != nil {
		if err := cf.WriteShardOut("hilbench", activeShard, report); err != nil {
			cliutil.Fatal("hilbench", 1, err)
		}
	}
	dumpMetrics(cf)
}

// dumpMetrics honors -metrics on the way out.
func dumpMetrics(cf *cliutil.CampaignFlags) {
	if err := cf.DumpMetrics("hilbench"); err != nil {
		cliutil.Fatal("hilbench", 1, err)
	}
}

// mergeMain recombines shard result files (in any order) into Table III.
func mergeMain(files []string) {
	shards, err := campaign.ReadShardResults(files)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilbench:", err)
		os.Exit(2)
	}
	merged, err := campaign.MergeShards(shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilbench:", err)
		os.Exit(1)
	}
	agg := merged[core.V3]
	if agg == nil {
		fmt.Fprintln(os.Stderr, "hilbench: merged shards carry no MLS-V3 aggregate")
		os.Exit(1)
	}
	fmt.Printf("merged %d shards (%d runs)\n", len(shards), shards[0].Total)
	fmt.Printf("aggregate digest: %s\n\n", campaign.AggregatesDigest(merged))
	printTableIII(*agg)
	if row := agg.FleetString(); row != "" {
		fmt.Println("\nAirspace deconfliction (fleet campaign)")
		fmt.Println(row)
	}
	if row := agg.DependabilityString(); row != "" {
		fmt.Println("\nDependability (fault campaign)")
		fmt.Println(row)
	}
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
