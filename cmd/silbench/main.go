// Command silbench regenerates the paper's SIL evaluation (RQ1):
//
//	Table I  — success / collision-failure / poor-landing rates of
//	           MLS-V1, MLS-V2 and MLS-V3 over the 10-map × 10-scenario
//	           benchmark, repeated -repeats times.
//	Table II — the marker detectors' false-negative rates over all
//	           marker-visible frames of the same runs.
//
// The whole sweep is one campaign.Spec fanned out across -workers cores;
// results are delivered in canonical grid order, so any worker count
// reproduces the sequential tables bit for bit.
//
// Campaigns at scale: -checkpoint makes the sweep crash-safe (Ctrl-C it,
// rerun the same command, it resumes where it stopped); -serve turns the
// tool into the campaign's coordinator and -join into one of its workers,
// so any number of machines can split the campaign. -serve -checkpoint
// journals every run the coordinator merges: rerun the -serve command to
// resume it, or run this command with the same grid flags and that
// -checkpoint to print its tables again. Every path is bit-identical to
// one uninterrupted run — compare the printed aggregate digests.
//
// Dependability campaigns: -faults applies a fault-injection plan (a
// preset name or an internal/fault spec string) to every run — the sweep
// becomes a degraded-conditions benchmark with time-to-recover, abort
// causes and degraded-mode exposure next to the Table I rates. Plans ride
// the campaign's Timing, so checkpoints and leases bind to them and a
// fault campaign stays bit-identical across workers, resume and merges.
// -fault-sweep runs the whole grid once nominal and once per preset and
// prints the dependability comparison table.
//
// Fleet campaigns: -fleet n flies every run as an n-drone lockstep fleet
// with inter-drone sensing (see docs/fleet.md) and adds the airspace
// deconfliction rows (near misses, separation violations, throughput per
// km²) under the tables. The spec rides Timing like the other knobs, so
// fleet campaigns checkpoint and distribute unchanged.
// -fleet-sweep runs the grid across fleet-size x density x fault-plan
// configurations and prints the airspace comparison table.
//
// Absolute percentages depend on the synthetic substrate; the comparisons
// that must hold are the orderings and rough factors (see EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/campaign"
	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/worldgen"
)

func main() {
	maps := flag.Int("maps", 10, "number of benchmark maps to run (1-10)")
	scenarios := flag.Int("scenarios", worldgen.NumScenariosPerMap, "scenarios per map (1-10)")
	repeats := flag.Int("repeats", 3, "sensor-seed repetitions per scenario (paper: 3)")
	gens := flag.String("systems", "1,2,3", "comma-separated system generations to run")
	cf := cliutil.Register(flag.CommandLine)
	sf := cliutil.RegisterSearch(flag.CommandLine)
	verbose := flag.Bool("v", false, "print per-run results")
	pipelineLag := flag.Int("pipeline-lag", 1, "with -pipeline: apply perception results k control ticks after capture (0 = synchronous, bit-identical to inline)")
	faultSweep := flag.Bool("fault-sweep", false, "run the grid nominal plus once per fault preset and print the dependability table")
	fleetSweep := flag.Bool("fleet-sweep", false, "run the grid across fleet sizes x spawn densities x fault plans and print the airspace table")
	verifyFast := flag.Bool("verify-fast", false, "fly the A/B equivalence sweeps (exact vs fast engine) and print the tolerance report; exits nonzero on a contract violation")
	verifyShort := flag.Bool("verify-short", false, "with -verify-fast: trim the sweeps for a quick CI pass")
	flag.Parse()
	if err := cf.Validate(); err != nil {
		cliutil.Fatal("silbench", 2, err)
	}
	if cf.Trace != "" && (*faultSweep || *fleetSweep || *verifyFast || sf.Active()) {
		cliutil.Fatal("silbench", 2, fmt.Errorf("-trace records the main campaign's runs; drop it for sweep/search/verify modes"))
	}
	if err := cf.StartDebug("silbench"); err != nil {
		cliutil.Fatal("silbench", 1, err)
	}

	if cf.Join != "" {
		// A worker needs no spec of its own: leases carry the campaign.
		cf.Distributed("silbench", campaign.Spec{}, "")
		dumpMetrics(cf)
		return
	}
	if *verifyFast {
		verifyFastMain(cf.Workers, *verifyShort, cf.Progress)
		return
	}

	knobs, err := cf.Knobs()
	if err != nil {
		cliutil.Fatal("silbench", 2, err)
	}
	knobs.PipelineLag = *pipelineLag
	// Pipeline, fast, fault plan and fleet all ride the spec's Timing, so
	// checkpoints and leases bind to them; "-fleet 1" and an empty plan
	// digest exactly like no flag at all. Fast digests are only comparable
	// to other fast digests (see -verify-fast).
	spec, err := catalog.SIL.Spec(catalog.Grid{
		Maps: *maps, Scenarios: *scenarios, Repeats: *repeats, Systems: *gens,
	}, knobs)
	if err != nil {
		cliutil.Fatal("silbench", 2, err)
	}
	selected, plan, fleet := spec.Generations, spec.Timing.Faults, spec.Timing.Fleet

	if *fleetSweep {
		if cf.Checkpoint != "" || plan.Active() || fleet.Active() {
			fmt.Fprintln(os.Stderr, "silbench: -fleet-sweep runs its own campaigns; drop -checkpoint/-faults/-fleet")
			os.Exit(2)
		}
		fleetSweepMain(spec, selected, cf.Workers)
		return
	}

	if *faultSweep {
		if cf.Checkpoint != "" || plan.Active() {
			fmt.Fprintln(os.Stderr, "silbench: -fault-sweep runs its own campaigns; drop -checkpoint/-faults")
			os.Exit(2)
		}
		faultSweepMain(spec, selected, cf.Workers)
		return
	}

	if sf.Active() {
		if cf.Checkpoint != "" || plan.Active() {
			fmt.Fprintln(os.Stderr, "silbench: -fault-search composes its own probe plans; drop -checkpoint/-faults")
			os.Exit(2)
		}
		// The search flies one cell under the selected timing profile
		// (-pipeline/-fast ride spec.Timing like everywhere else), for the
		// first generation of -systems.
		faultSearchMain(cf, sf, selected[0], spec.Timing, *verbose)
		return
	}

	// Distributed mode: -serve dispatches this exact spec to joining
	// workers and prints the same tables from the digest-verified merge.
	if aggs, handled := cf.Distributed("silbench", spec, ""); handled {
		if aggs != nil {
			printTables(selected, aggs)
			printDependability(selected, aggs)
			printFleet(selected, aggs)
		}
		dumpMetrics(cf)
		return
	}

	fmt.Printf("SIL benchmark: %d maps x %d scenarios x %d repeats x %d systems = %d runs on %d workers\n",
		*maps, *scenarios, *repeats, len(selected), spec.Total(), cf.Workers)
	if cf.Pipeline {
		fmt.Printf("pipelined perception: on, delivery latency %d ticks\n", *pipelineLag)
	}
	if cf.Fast {
		fmt.Printf("fast engine mode: on (perception lag %d ticks, plan lag %d ticks; digests comparable to fast runs only)\n",
			spec.Timing.PipelineLatencyTicks, spec.Timing.PlanLatencyTicks)
	}
	if plan.Active() {
		fmt.Printf("fault plan: %s\n", plan)
	}
	if fleet.Active() {
		fmt.Printf("fleet: %d drones per run (spawn spacing %g m)\n", fleet.Size, fleetSpacing(fleet))
	}
	fmt.Println()

	// Ordered delivery keeps -v output in the exact sequential order.
	opts := cf.Options("silbench")
	if *verbose {
		opts.OnResult = func(ru campaign.Run, r scenario.Result) {
			fmt.Printf("  %s map%d sc%d rep%d: %s (%.1fs)\n",
				ru.Gen, ru.MapIdx, ru.ScenarioIdx, ru.Rep, r.Outcome, r.Duration)
		}
	}
	report := cf.Execute("silbench", spec, opts)
	if cf.Trace != "" {
		fmt.Printf("flight-recorder trace written to %s (validate with: go run ./tools/tracecheck %s)\n", cf.Trace, cf.Trace)
	}

	fmt.Printf("campaign done: %s\n", cliutil.RunsSummary(report))
	hits, misses, resident := worldgen.Shared.Stats()
	fmt.Printf("world cache: %d hits / %d generations, %d worlds resident\n",
		hits, misses, resident)
	fmt.Printf("aggregate digest: %s\n", report.Digest())

	// Rows print in -systems order.
	printTables(selected, report.Aggregates)
	printDependability(selected, report.Aggregates)
	printFleet(selected, report.Aggregates)
	dumpMetrics(cf)
}

// dumpMetrics honors -metrics on the way out.
func dumpMetrics(cf *cliutil.CampaignFlags) {
	if err := cf.DumpMetrics("silbench"); err != nil {
		cliutil.Fatal("silbench", 1, err)
	}
}

// fleetSpacing resolves the spec's effective spawn spacing for banners.
func fleetSpacing(f *scenario.FleetSpec) float64 {
	if f.Spacing > 0 {
		return f.Spacing
	}
	return scenario.DefaultFleetSpacing
}

// verifyFastMain is the -verify-fast entry: the A/B equivalence campaign
// (every verification sweep flown with the exact engine and again with
// Timing.WithFast) checked against the committed tolerance contract. The
// verdict is deterministic across repeats and worker counts; a violation
// exits nonzero so CI can gate on it.
func verifyFastMain(workers int, short, progress bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := campaign.VerifyFastOptions{Workers: workers, Short: short}
	if progress {
		opts.OnProgress = func(sweep string, done, total int) {
			fmt.Fprintf(os.Stderr, "silbench: verify-fast sweep %q done (%d/%d)\n", sweep, done, total)
		}
	}
	mode := "full"
	if short {
		mode = "short"
	}
	fmt.Printf("verify-fast: exact-vs-fast equivalence sweeps (%s) on %d workers\n\n", mode, workers)
	eq, err := campaign.VerifyFast(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "silbench:", err)
		os.Exit(1)
	}
	fmt.Print(eq.String())
	if !eq.OK() {
		os.Exit(1)
	}
}

// faultSweepMain is the -fault-sweep grid: the same campaign executed once
// nominal and once per fault preset, summarized as one dependability
// table. Each campaign prints its own aggregate digest, so any cell of
// the grid can be re-verified in isolation.
func faultSweepMain(base campaign.Spec, gens []core.Generation, workers int) {
	names := append([]string{"nominal"}, fault.Presets()...)
	fmt.Printf("Fault sweep: %d campaigns x %d runs on %d workers\n\n", len(names), base.Total(), workers)

	tbl := telemetry.NewTable("plan", "system", "success", "collision", "poor-land",
		"degraded-ticks", "recovered", "MTTR(s)", "aborts")
	for _, name := range names {
		spec := base
		spec.Timing.Faults = nil
		if name != "nominal" {
			plan, err := fault.ParsePlan(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "silbench:", err)
				os.Exit(1)
			}
			spec.Timing.Faults = plan
		}
		report, err := campaign.Execute(context.Background(), spec,
			campaign.Options{Workers: workers, DiscardResults: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "silbench:", err)
			os.Exit(1)
		}
		for _, gen := range gens {
			agg := report.Aggregates[gen]
			if agg == nil {
				continue
			}
			aborts := 0
			for _, n := range agg.AbortCauses {
				aborts += n
			}
			tbl.AddRow(name, agg.System,
				fmt.Sprintf("%.1f%%", agg.SuccessRate()),
				fmt.Sprintf("%.1f%%", agg.CollisionRate()),
				fmt.Sprintf("%.1f%%", agg.PoorLandingRate()),
				agg.DegradedTicks,
				fmt.Sprintf("%d/%d", agg.RecoveredRuns, agg.FaultRuns),
				agg.MeanTimeToRecover, aborts)
		}
		fmt.Printf("  %-10s aggregate digest: %s\n", name, report.Digest())
	}
	fmt.Println("\nDependability grid (Table I rates under each fault plan)")
	tbl.Render(os.Stdout)
}

// fleetSweepMain is the -fleet-sweep grid: the same campaign executed
// across the fleet-size x spawn-density x fault-plan axes, summarized as
// one airspace-deconfliction table. Size 1 is the solo baseline (spacing
// is meaningless there, so the density axis collapses to one row), and
// each campaign prints its aggregate digest so any cell can be
// re-verified in isolation.
func fleetSweepMain(base campaign.Spec, gens []core.Generation, workers int) {
	sizes := []int{1, 3, 6}
	spacings := []float64{scenario.DefaultFleetSpacing, 3}
	plans := []string{"nominal", "gps"}
	fmt.Printf("Fleet sweep: sizes %v x spacings %v x plans %v, %d runs per campaign on %d workers\n\n",
		sizes, spacings, plans, base.Total(), workers)

	tbl := telemetry.NewTable("fleet", "spacing", "plan", "system", "success",
		"fleet-success", "near-misses", "sep-violations", "thr(/km2)")
	for _, size := range sizes {
		for _, spacing := range spacings {
			if size == 1 && spacing != spacings[0] {
				continue
			}
			for _, name := range plans {
				spec := base
				spec.Timing.Faults = nil
				spec.Timing.Fleet = nil
				if name != "nominal" {
					plan, err := fault.ParsePlan(name)
					if err != nil {
						fmt.Fprintln(os.Stderr, "silbench:", err)
						os.Exit(1)
					}
					spec.Timing.Faults = plan
				}
				if size > 1 {
					spec.Timing.Fleet = &scenario.FleetSpec{Size: size, Spacing: spacing}
				}
				report, err := campaign.Execute(context.Background(), spec,
					campaign.Options{Workers: workers, DiscardResults: true})
				if err != nil {
					fmt.Fprintln(os.Stderr, "silbench:", err)
					os.Exit(1)
				}
				for _, gen := range gens {
					agg := report.Aggregates[gen]
					if agg == nil {
						continue
					}
					tbl.AddRow(size, spacing, name, agg.System,
						fmt.Sprintf("%.1f%%", agg.SuccessRate()),
						fmt.Sprintf("%d/%d", agg.FleetSuccesses, agg.FleetDrones),
						agg.NearMisses, agg.SeparationViolations,
						fmt.Sprintf("%.1f", agg.MeanFleetThroughput))
				}
				fmt.Printf("  fleet=%d spacing=%g plan=%-8s aggregate digest: %s\n",
					size, spacing, name, report.Digest())
			}
		}
	}
	fmt.Println("\nAirspace grid (deconfliction metrics per fleet configuration)")
	tbl.Render(os.Stdout)
}

// printFleet renders the airspace-deconfliction rows under the tables;
// silent on solo sweeps.
func printFleet(gens []core.Generation, aggs map[core.Generation]*scenario.Aggregate) {
	printed := false
	for _, gen := range gens {
		agg := aggs[gen]
		if agg == nil {
			continue
		}
		if row := agg.FleetString(); row != "" {
			if !printed {
				fmt.Println("\nAirspace deconfliction (fleet campaign)")
				printed = true
			}
			fmt.Printf("%s\n", row)
		}
	}
}

// printDependability renders the fault-campaign rows under the tables;
// silent on nominal sweeps.
func printDependability(gens []core.Generation, aggs map[core.Generation]*scenario.Aggregate) {
	printed := false
	for _, gen := range gens {
		agg := aggs[gen]
		if agg == nil {
			continue
		}
		if row := agg.DependabilityString(); row != "" {
			if !printed {
				fmt.Println("\nDependability (fault campaign)")
				printed = true
			}
			fmt.Printf("%s\n", row)
		}
	}
}

// printTables renders Table I / Table II / auxiliary rows in the given
// generation order, skipping generations with no aggregate.
func printTables(gens []core.Generation, aggs map[core.Generation]*scenario.Aggregate) {
	rows := make([]scenario.Aggregate, 0, len(gens))
	for _, gen := range gens {
		if agg := aggs[gen]; agg != nil {
			rows = append(rows, *agg)
		}
	}

	fmt.Println("\nTable I — Experiment Results of SIL Testing")
	fmt.Printf("%-10s %-22s %-26s %-26s\n", "System", "Successful Landing", "Failure (Collision)", "Failure (Poor Landing)")
	for _, a := range rows {
		fmt.Printf("%-10s %20.2f%% %24.2f%% %24.2f%%\n",
			a.System, a.SuccessRate(), a.CollisionRate(), a.PoorLandingRate())
	}

	fmt.Println("\nTable II — Marker Detection Results (false-negative rate)")
	fmt.Printf("%-10s %-22s %-18s\n", "System", "Implementation", "FN Rate")
	impl := map[string]string{
		"MLS-V1": "OpenCV-classical",
		"MLS-V2": "TPH-YOLO-equivalent",
		"MLS-V3": "TPH-YOLO-equivalent",
	}
	for _, a := range rows {
		fmt.Printf("%-10s %-22s %16.2f%%\n", a.System, impl[a.System], 100*a.FalseNegativeRate)
	}

	fmt.Println("\nAuxiliary metrics")
	for _, a := range rows {
		fmt.Printf("%-10s mean landing error %.2f m, mean detection deviation %.2f m\n",
			a.System, a.MeanLandingError, a.MeanDetectionError)
	}
}
