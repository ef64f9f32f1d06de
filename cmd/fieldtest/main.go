// Command fieldtest regenerates the paper's real-world evaluation (RQ3,
// §V-C): MLS-V3 flown on the field profile — weather-correlated GPS drift
// despite healthy DOP, erroneous point clouds (Fig. 5c), live camera-feed
// compute load — over simplified scenarios fitting a constrained airspace.
//
// The campaign is the catalog's field entry: an explicit flight list (each
// flight pairs one map with one scenario) and a configure hook that
// applies the field's weather floors and spurious-depth rate per flight.
// Ordered delivery keeps the flight log sequential.
//
// Reported outputs:
//   - mean landing error (paper: ≈60 cm vs ≈25 cm in SIL/HIL)
//   - GPS drift magnitudes (Fig. 5d)
//   - Jetson Nano resource series (Fig. 7): higher CPU/RAM than HIL
//     because of real-time camera processing.
//
// A real field campaign gets interrupted — weather, batteries, airspace —
// so this tool doubles as the resume-after-cancel demonstration: run with
// -checkpoint, Ctrl-C mid-campaign, rerun the same command and the flown
// flights replay from the journal while only the remainder fly. The final
// flight log and aggregates are bit-identical to an uninterrupted
// campaign (compare the printed aggregate digests).
package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hil"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func main() {
	runs := flag.Int("runs", 20, "number of field flights")
	cf := cliutil.Register(flag.CommandLine)
	resources := flag.Bool("resources", false, "print the per-second Fig. 7 resource series of one flight")
	csvPath := flag.String("csv", "", "write the Fig. 7 series of flight 0 as CSV to this path")
	flag.Parse()
	if err := cf.Validate(); err != nil {
		cliutil.Fatal("fieldtest", 2, err)
	}

	if err := cf.StartDebug("fieldtest"); err != nil {
		cliutil.Fatal("fieldtest", 1, err)
	}

	if cf.Merge {
		printAggregates(cliutil.Merge("fieldtest", "flights", flag.Args()))
		return
	}
	if cf.Join != "" {
		// A worker needs no spec of its own: leases carry the campaign and
		// name the run-configuration profile (weather floors, depth-error
		// rate) to apply.
		cf.Distributed("fieldtest", campaign.Spec{}, "")
		dumpMetrics(cf)
		return
	}

	knobs, err := cf.Knobs()
	if err != nil {
		cliutil.Fatal("fieldtest", 2, err)
	}
	// The fault plan rides the field timing into the campaign (beyond the
	// field's built-in degradations), and so does the fleet spec
	// (multi-drone field trials in one constrained airspace).
	c := catalog.Field
	spec, err := c.Spec(catalog.Grid{Runs: *runs}, knobs)
	if err != nil {
		cliutil.Fatal("fieldtest", 2, err)
	}
	tm := spec.Timing

	fmt.Printf("Field profile on %s: CPU demand %.0f%% of capacity\n", c.Platform.Name, 100*c.Plan().CPUDemand)
	if cf.Pipeline {
		fmt.Printf("pipelined perception: on — emergent delivery latency %d ticks\n", tm.PipelineLatencyTicks)
	}
	if cf.Fast {
		fmt.Printf("fast engine mode: on (digests comparable to fast runs only)\n")
	}
	if tm.Faults.Active() {
		fmt.Printf("fault plan: %s\n", tm.Faults)
	}
	if tm.Fleet.Active() {
		fmt.Printf("fleet: %d drones per flight\n", tm.Fleet.Size)
	}
	fmt.Println()

	// Fleet mode: workers resolve the "field" profile to the same weather
	// floors and fault rates the configure hook applies locally.
	if aggs, handled := cf.Distributed("fieldtest", spec, c.Profile()); handled {
		printAggregates(aggs)
		dumpMetrics(cf)
		return
	}

	mons := c.Monitor(&spec)
	// Ordered delivery keeps the flight log in flight order; Ctrl-C
	// cancels between flights, and with -checkpoint nothing is lost.
	opts := cf.Options("fieldtest")
	var drifts []float64
	opts.OnResult = func(ru campaign.Run, r scenario.Result) {
		drifts = append(drifts, r.MaxGPSDrift)
		fmt.Printf("  flight %2d map%d sc%d: %-12s landErr=%.2fm drift=%.2fm\n",
			ru.Rep, ru.MapIdx, ru.ScenarioIdx, r.Outcome, r.LandingError, r.MaxGPSDrift)
	}
	// The flight recorder chains behind the field hook and the monitor,
	// one header + events block per flight.
	report := cf.Execute("fieldtest", spec, opts)

	results := report.Results
	var meanCPU, meanMem float64
	count := 0
	for _, mon := range mons {
		if mon == nil {
			continue
		}
		meanCPU += mon.MeanCPU()
		meanMem += mon.MeanMemMB()
		count++
	}

	agg := *report.Aggregates[core.V3]
	agg.System = "MLS-V3-field"
	// The paper's 60 cm figure is the average over landed flights, pad or
	// no pad — GPS drift and wind on final are exactly what pushed some
	// landings wide.
	var landSum float64
	var landN int
	for _, r := range results {
		if r.Landed && !math.IsNaN(r.LandingError) {
			landSum += r.LandingError
			landN++
		}
	}
	var driftSum float64
	for _, d := range drifts {
		driftSum += d
	}

	fmt.Println("\nReal-world results (paper §V-C)")
	if cf.Pipeline {
		ps := scenario.ReadPipelineStats()
		fmt.Printf("  %s\n", telemetry.OverlapSummary(ps.StageBusy, ps.Stall, ps.Wall))
	}
	fmt.Printf("  aggregate digest: %s\n", report.Digest())
	fmt.Printf("  success %.1f%%, collision %.1f%%, poor landing %.1f%% over %d flights (%.1fs wall on %d workers, %.2fx speedup)\n",
		agg.SuccessRate(), agg.CollisionRate(), agg.PoorLandingRate(), agg.Runs,
		report.Wall.Seconds(), report.Workers, report.Speedup())
	if landN > 0 {
		fmt.Printf("  mean landing error: %.2f m (paper: ~0.60 m field vs ~0.25 m SIL/HIL)\n",
			landSum/float64(landN))
	}
	if len(drifts) > 0 {
		fmt.Printf("  mean max GPS drift: %.2f m (Fig. 5d)\n", driftSum/float64(len(drifts)))
	}
	if count > 0 {
		fmt.Printf("  mean CPU %.0f%% aggregate, mean RAM %.2f GB (Fig. 7: above HIL's)\n",
			meanCPU/float64(count), meanMem/float64(count)/1000)
	}
	printFleetAndDependability(agg)
	if agg.DependabilityString() != "" {
		for _, mon := range mons {
			if mon != nil && len(mon.FaultEvents()) > 0 {
				fmt.Println("fault timeline of the first monitored flight:")
				for _, ev := range mon.FaultEvents() {
					fmt.Println(obs.FormatEvent(ev))
				}
				break
			}
		}
	}

	mon0 := mons[0] // nil when flight 0 was replayed from the journal
	if *resources {
		fmt.Println("\nFig. 7 — per-second resource series of flight 0")
		if mon0 == nil {
			fmt.Println("  " + errNoSeries.Error())
		} else {
			fmt.Printf("%6s %8s %8s %8s %8s %8s %10s\n", "t", "core0", "core1", "core2", "core3", "cpu%", "memMB")
			for _, s := range mon0.Samples() {
				fmt.Printf("%6.0f %7.0f%% %7.0f%% %7.0f%% %7.0f%% %7.0f%% %10.0f\n",
					s.T, s.PerCore[0], s.PerCore[1], s.PerCore[2], s.PerCore[3], s.CPUPercent, s.MemMB)
			}
		}
	}

	if *csvPath != "" {
		if err := writeSeriesFile(*csvPath, mon0); err != nil {
			cliutil.Fatal("fieldtest", 1, err)
		}
		fmt.Printf("\nFig. 7 series written to %s\n", *csvPath)
	}
	dumpMetrics(cf)
}

var errNoSeries = errors.New("flight 0 was replayed from the checkpoint journal, so its Fig. 7 series was not recorded in this run")

// writeSeriesFile writes flight 0's Fig. 7 series to path as CSV. It
// refuses, writing nothing, when the flight has no monitor (errNoSeries):
// a header-only file would pass for a recorded series.
func writeSeriesFile(path string, mon *hil.Monitor) error {
	if mon == nil {
		return fmt.Errorf("-csv %s: %w", path, errNoSeries)
	}
	return os.WriteFile(path, seriesCSV(mon.Samples()), 0o666)
}

// seriesCSV renders Fig. 7 samples as CSV rows t, cpu_percent, mem_mb:
// time with 2 decimals, the two levels with 3.
func seriesCSV(samples []hil.Sample) []byte {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	cw.Write([]string{"t", "cpu_percent", "mem_mb"})
	for _, s := range samples {
		cw.Write([]string{
			strconv.FormatFloat(s.T, 'f', 2, 64),
			strconv.FormatFloat(s.CPUPercent, 'f', 3, 64),
			strconv.FormatFloat(s.MemMB, 'f', 3, 64),
		})
	}
	cw.Flush()
	return b.Bytes()
}

// printAggregates is the report of -serve and -merge: every row the
// campaign's MLS-V3 aggregate holds. Per-flight drift and resource series
// are not among them; they exist only in the process that flew the runs.
func printAggregates(aggs map[core.Generation]*scenario.Aggregate) {
	agg := aggs[core.V3]
	if agg == nil {
		cliutil.Fatal("fieldtest", 1, fmt.Errorf("the campaign carries no MLS-V3 aggregate"))
	}
	fmt.Printf("success %.1f%%, collision %.1f%%, poor landing %.1f%% over %d flights\n",
		agg.SuccessRate(), agg.CollisionRate(), agg.PoorLandingRate(), agg.Runs)
	fmt.Printf("mean landing error %.2f m, FNR %.2f%%\n", agg.MeanLandingError, 100*agg.FalseNegativeRate)
	printFleetAndDependability(*agg)
	fmt.Println("(per-flight drift and resource series live on the machines that executed each shard)")
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

// dumpMetrics honors -metrics on the way out.
func dumpMetrics(cf *cliutil.CampaignFlags) {
	if err := cf.DumpMetrics("fieldtest"); err != nil {
		cliutil.Fatal("fieldtest", 1, err)
	}
}
