// Faultlab: dependability campaigns as an interactive example — the DSN
// question ("how does the landing system degrade, and does it recover?")
// answered on a small grid you can watch.
//
// It flies the same campaign four times: nominal, under GPS interference,
// under a sensor-outage plan, and through offboard-link blackouts. Each
// campaign reports the Table-I rates next to the dependability metrics the
// fault subsystem adds — degraded-mode ticks, time-to-recover, and the
// abort-cause tally — plus the fault-event timeline of one mission.
//
// Everything is deterministic: a fault plan rides the campaign's timing
// profile, every stochastic fault effect draws from its own per-concern
// RNG stream, and the printed digest is bit-identical for any -workers
// value (try it). Interrupted fault campaigns resume from checkpoints and
// shard across machines exactly like nominal ones — see cmd/silbench.
//
//	go run ./examples/faultlab
//	go run ./examples/faultlab -quick        # reduced grid (CI smoke)
//	go run ./examples/faultlab -workers 1    # same digests, one core
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hil"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/worldgen"
)

func main() {
	quick := flag.Bool("quick", false, "reduced grid for a fast smoke run")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel run workers (1 = sequential)")
	flag.Parse()

	maps := campaign.Range(3)
	scenarios := []int{0, 5} // one normal, one adverse weather slot
	if *quick {
		maps = campaign.Range(2)
		scenarios = []int{0}
	}

	// The experiments: one nominal baseline, three fault plans. The specs
	// are inline here so the example reads as documentation; the bench
	// tools accept the same plans as -faults strings.
	experiments := []struct {
		name string
		spec string
	}{
		{"nominal", "none"},
		{"gps interference", "gps-drift@12+25:mag=0.6"},
		{"sensor outage", "depth-dropout@10+15;color-dropout@18+10:prob=0.8"},
		{"link blackouts", "comms-blackout@15+4;comms-blackout@35+6"},
	}

	fmt.Printf("Faultlab: %d maps x %d scenarios, MLS-V3, %d workers\n\n",
		len(maps), len(scenarios), *workers)

	tbl := telemetry.NewTable("experiment", "success", "collision", "poor-land",
		"degraded-ticks", "recovered", "MTTR(s)", "aborts")
	for _, ex := range experiments {
		plan, err := fault.ParsePlan(ex.spec)
		if err != nil {
			log.Fatal(err)
		}
		timing := scenario.SILTiming()
		timing.Faults = plan

		spec := campaign.Spec{
			Maps:        maps,
			Scenarios:   scenarios,
			Repeats:     1,
			Generations: []core.Generation{core.V3},
			Timing:      timing,
		}

		// One hil.Monitor per run (attached through the campaign's
		// configure hook), so the example can print a fault-event timeline
		// next to the outcome table.
		mons := make([]*hil.Monitor, spec.Total())
		spec.Configure = func(ru campaign.Run, _ *worldgen.Scenario, _ *core.System, cfg *scenario.RunConfig) {
			mon := hil.NewMonitor(hil.DesktopSIL(), hil.NanoCosts())
			mons[ru.Index] = mon
			cfg.Observer, cfg.Recorder = mon, mon
		}
		report, err := campaign.Execute(context.Background(), spec,
			campaign.Options{Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		for _, mon := range mons {
			if mon != nil && len(mon.FaultEvents()) > 0 {
				fmt.Printf("%-17s timeline of one mission:\n", ex.name)
				for _, ev := range mon.FaultEvents() {
					fmt.Println(obs.FormatEvent(ev))
				}
				break
			}
		}

		agg := report.Aggregates[core.V3]
		aborts := 0
		for _, n := range agg.AbortCauses {
			aborts += n
		}
		tbl.AddRow(ex.name,
			fmt.Sprintf("%.0f%%", agg.SuccessRate()),
			fmt.Sprintf("%.0f%%", agg.CollisionRate()),
			fmt.Sprintf("%.0f%%", agg.PoorLandingRate()),
			agg.DegradedTicks,
			fmt.Sprintf("%d/%d", agg.RecoveredRuns, agg.FaultRuns),
			agg.MeanTimeToRecover, aborts)
		fmt.Printf("%-17s digest %s\n", ex.name, report.Digest())
	}

	fmt.Println("\nDependability grid")
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEvery digest above is bit-identical for any -workers value, any")
	fmt.Println("checkpoint resume, and any shard-merge order: a fault campaign is a")
	fmt.Println("pure function of (seed, plan). The bench tools take the same plans")
	fmt.Println("via -faults; silbench -fault-sweep prints this grid over all presets.")
}
