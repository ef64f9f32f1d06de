// Command fieldtest regenerates the paper's real-world evaluation (RQ3,
// §V-C): MLS-V3 flown on the field profile — weather-correlated GPS drift
// despite healthy DOP, erroneous point clouds (Fig. 5c), live camera-feed
// compute load — over simplified scenarios fitting a constrained airspace.
//
// The campaign is the catalog's field entry: an explicit flight list (each
// flight pairs one map with one scenario) and a configure hook that
// applies the field's weather floors and spurious-depth rate per flight
// and charges its load to the Jetson Nano. Ordered delivery keeps the
// flight log sequential.
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
// flight log, aggregates and figures are bit-identical to an
// uninterrupted campaign (compare the printed aggregate digests): every
// figure is pooled from the flights' own Results, and Fig. 7's series and
// the fault timeline are read from one flight re-flown with a flight
// recorder. -serve prints the same figure lines; with -checkpoint the
// coordinator journals every flight it merges, and this command with the
// same flags and that journal replays the whole campaign, -resources and
// -csv included (they need the flights' Results, so they run locally
// only).
package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
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
	if err := figureFlags(cf, *resources, *csvPath); err != nil {
		cliutil.Fatal("fieldtest", 2, err)
	}

	if err := cf.StartDebug("fieldtest"); err != nil {
		cliutil.Fatal("fieldtest", 1, err)
	}

	c := catalog.Field
	if cf.Join != "" {
		// A worker needs no spec of its own: leases carry the campaign and
		// name the run-configuration profile (weather floors, depth-error
		// rate, platform) to apply.
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

	// Ordered delivery keeps the flight log in flight order; Ctrl-C
	// cancels between flights, and with -checkpoint nothing is lost.
	opts := cf.Options("fieldtest")
	opts.OnResult = func(ru campaign.Run, r scenario.Result) {
		fmt.Printf("  flight %2d map%d sc%d: %-12s landErr=%.2fm drift=%.2fm\n",
			ru.Rep, ru.MapIdx, ru.ScenarioIdx, r.Outcome, r.LandingError, r.MaxGPSDrift)
	}
	report := cf.Execute("fieldtest", spec, opts)
	agg := *report.Aggregates[core.V3]

	fmt.Println("\nReal-world results (paper §V-C)")
	fmt.Printf("  aggregate digest: %s\n", report.Digest())
	fmt.Printf("  success %.1f%%, collision %.1f%%, poor landing %.1f%% over %d flights (%.1fs wall on %d workers, %.2fx speedup)\n",
		agg.SuccessRate(), agg.CollisionRate(), agg.PoorLandingRate(), agg.Runs,
		report.Wall.Seconds(), report.Workers, report.Speedup())
	printFigures(agg)
	timeline, err := cliutil.FaultTimeline(spec, report.Results)
	if err != nil {
		cliutil.Fatal("fieldtest", 1, err)
	}
	cliutil.PrintEvents("fault timeline of the first monitored flight:", timeline)

	if *resources || *csvPath != "" {
		series, err := cliutil.ReflownEvents(spec, 0, report.Results[0], "resource")
		if err != nil {
			cliutil.Fatal("fieldtest", 1, err)
		}
		if *resources {
			fmt.Println("\nFig. 7 — per-second resource series of flight 0")
			fmt.Printf("%6s %8s %8s %8s %8s %8s %10s\n", "t", "core0", "core1", "core2", "core3", "cpu%", "memMB")
			for _, s := range series {
				// Every core runs at one level (the platform's waterfill).
				core := s.Value / float64(c.Platform.Cores)
				fmt.Printf("%6.0f %7.0f%% %7.0f%% %7.0f%% %7.0f%% %7.0f%% %10.0f\n",
					s.T, core, core, core, core, s.Value, s.MemMB)
			}
		}
		if *csvPath != "" {
			if err := os.WriteFile(*csvPath, seriesCSV(series), 0o666); err != nil {
				cliutil.Fatal("fieldtest", 1, err)
			}
			fmt.Printf("\nFig. 7 series written to %s\n", *csvPath)
		}
	}
	dumpMetrics(cf)
}

// figureFlags refuses -resources and -csv where no flight's Result is at
// hand to re-fly flight 0 against: a coordinator (-serve) holds only
// aggregates, and a worker (-join) flies leases, not the campaign.
func figureFlags(cf *cliutil.CampaignFlags, resources bool, csvPath string) error {
	if (resources || csvPath != "") && (cf.Serve != "" || cf.Join != "") {
		return fmt.Errorf("-resources and -csv read flight 0 of a campaign flown here; drop them with -serve or -join")
	}
	return nil
}

// printFigures prints §V-C's figures — the mean landing error of the
// landed flights, the mean max GPS drift and the mean CPU and RAM —
// then the fleet and fault rows. Every path prints through it, and every
// figure is pooled from the flights' own Results, so a fresh, resumed or
// served campaign prints the same lines. A flight replayed from a journal
// written before flights carried a resource summary has none; the
// figures then say how many are missing instead of covering the rest.
func printFigures(agg scenario.Aggregate) {
	agg.System = "MLS-V3-field"
	if missing := agg.Runs - agg.PlatformRuns; missing > 0 {
		fmt.Printf("  no landing-error, drift or CPU/RAM figure: %d of %d flights carry no resource summary (replayed from a journal written before flights recorded one)\n",
			missing, agg.Runs)
	} else {
		// The paper's 60 cm figure is the average over landed flights, pad
		// or no pad.
		if agg.LandedRuns > 0 {
			fmt.Printf("  mean landing error: %.2f m (paper: ~0.60 m field vs ~0.25 m SIL/HIL)\n", agg.MeanLandedError)
		}
		fmt.Printf("  mean max GPS drift: %.2f m (Fig. 5d)\n", agg.MeanMaxGPSDrift)
		fmt.Printf("  mean CPU %.0f%% aggregate, mean RAM %.2f GB (Fig. 7: above HIL's)\n",
			agg.MeanCPU, agg.MeanMemMB/1000)
	}
	cliutil.PrintFleetAndDependability(agg)
}

// seriesCSV renders Fig. 7's resource events as CSV rows t, cpu_percent,
// mem_mb: time with 2 decimals, the two levels with 3.
func seriesCSV(series []obs.Event) []byte {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	cw.Write([]string{"t", "cpu_percent", "mem_mb"})
	for _, s := range series {
		cw.Write([]string{
			strconv.FormatFloat(s.T, 'f', 2, 64),
			strconv.FormatFloat(s.Value, 'f', 3, 64),
			strconv.FormatFloat(s.MemMB, 'f', 3, 64),
		})
	}
	cw.Flush()
	return b.Bytes()
}

// printAggregates is the report of -serve: the campaign's outcome rates,
// then the same figures a local run prints.
func printAggregates(aggs map[core.Generation]*scenario.Aggregate) {
	agg := aggs[core.V3]
	if agg == nil {
		cliutil.Fatal("fieldtest", 1, fmt.Errorf("the campaign carries no MLS-V3 aggregate"))
	}
	fmt.Printf("success %.1f%%, collision %.1f%%, poor landing %.1f%% over %d flights\n",
		agg.SuccessRate(), agg.CollisionRate(), agg.PoorLandingRate(), agg.Runs)
	printFigures(*agg)
}

// dumpMetrics honors -metrics on the way out.
func dumpMetrics(cf *cliutil.CampaignFlags) {
	if err := cf.DumpMetrics("fieldtest"); err != nil {
		cliutil.Fatal("fieldtest", 1, err)
	}
}
