// Campaign: declare a whole evaluation sweep as one value, fan it out
// across every core — and make it survive Ctrl-C.
//
// The paper's tables are grids of deterministic closed-loop runs; the
// campaign engine executes such a grid on a worker pool with per-run
// seeds derived from grid indices, so any worker count reproduces the
// sequential tables bit for bit. This example sweeps two system
// generations over a reduced balanced grid, streams progress with an ETA,
// and prints the merged per-generation aggregate rows plus the measured
// throughput of the runs it flew.
//
// It also demonstrates resume-after-cancel: runs are journaled to a
// checkpoint file as they finish, so interrupting the sweep loses
// nothing. Try it:
//
//	go run ./examples/campaign        # Ctrl-C partway through
//	go run ./examples/campaign        # resumes, finishes, same digest
//
// The aggregate digest printed at the end is identical however often the
// campaign was interrupted (exact, order-independent aggregation); the
// checkpoint file is deleted after an uninterrupted finish so the next
// invocation starts fresh.
//
//	go run ./examples/campaign -checkpoint ""   # opt out of journaling
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

func main() {
	checkpoint := flag.String("checkpoint", "campaign.ckpt", "journal file for resume-after-cancel (empty disables)")
	flag.Parse()

	// Ctrl-C cancels the campaign between runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// A reduced Table-I sweep: 4 maps, one normal and one adverse weather
	// slot, the mapless V1 versus the full V3 stack.
	spec := campaign.Spec{
		Maps:        campaign.Range(4),
		Scenarios:   []int{0, 5},
		Repeats:     1,
		Generations: []core.Generation{core.V1, core.V3},
		Timing:      scenario.SILTiming(),
	}
	fmt.Printf("Campaign: %d runs (2 generations x 4 maps x 2 scenarios)\n", spec.Total())

	opts := campaign.Options{
		// Workers defaults to GOMAXPROCS; Ordered keeps the log readable.
		Ordered: true,
		OnResult: func(ru campaign.Run, r scenario.Result) {
			fmt.Printf("  %-7s map%d sc%d: %-12s %5.1fs\n",
				ru.Gen, ru.MapIdx, ru.ScenarioIdx, r.Outcome, r.Duration)
		},
		OnProgress: func(p campaign.Progress) {
			fmt.Printf("    %d/%d done, ETA %s\n", p.Done, p.Total, p.ETA.Round(time.Second))
		},
	}

	var journal *campaign.Journal
	if *checkpoint != "" {
		j, err := campaign.OpenJournal(*checkpoint, spec)
		if err != nil {
			log.Fatal(err)
		}
		journal = j
		defer j.Close()
		if done := j.Len(); done > 0 {
			fmt.Printf("resuming from %s: %d/%d runs already journaled (replayed instantly)\n",
				*checkpoint, done, spec.Total())
		}
		opts.Checkpoint = j
	}
	fmt.Println()

	report, err := campaign.Execute(ctx, spec, opts)
	if err != nil {
		if *checkpoint != "" && ctx.Err() != nil {
			fmt.Printf("\ninterrupted — finished runs are journaled in %s; run me again to resume\n", *checkpoint)
			os.Exit(0)
		}
		log.Fatal(err)
	}

	fmt.Println("\nPer-generation aggregates (streamed worker-shard merge):")
	for _, gen := range spec.Generations {
		fmt.Printf("  %s\n", report.Aggregates[gen])
	}
	fmt.Printf("\naggregate digest: %s (bit-identical for any worker count or resume history)\n",
		report.Digest())
	fmt.Printf("%d runs flown on %d workers in %.1fs wall (%.1f runs/s), %d replayed from the checkpoint\n",
		report.Flown, report.Workers, report.Wall.Seconds(), float64(report.Flown)/report.Wall.Seconds(), report.Replayed)

	// A finished campaign's journal has served its purpose. Close before
	// removing (deleting an open file fails on some platforms); the
	// deferred Close then finds an already-closed file, which is fine.
	if journal != nil {
		journal.Close()
		if err := os.Remove(*checkpoint); err != nil {
			fmt.Fprintf(os.Stderr, "could not remove finished checkpoint %s: %v\n", *checkpoint, err)
		}
	}
}
