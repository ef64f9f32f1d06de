// Package cliutil is the shared command-line layer of the bench tools.
// silbench, hilbench, fieldtest and campaignd all run the same campaign
// machinery, so it is defined once here:
//   - the campaign flags (-workers, -progress, -checkpoint, -pipeline,
//     -faults, -fast, -fleet), whose timing knobs reach internal/catalog,
//     where every named campaign's Spec is built, through Knobs;
//   - the local execute path (Execute: trace, checkpoint, run, resume
//     hint), which also prints a served campaign again from the
//     coordinator's -checkpoint journal;
//   - the distributed entry points (-serve, -join) and the observability
//     flags (-trace, -metrics, -debug);
//   - the figures the hardware tools read from one re-flown run
//     (ReflownEvents, FaultTimeline).
//
// Each cmd keeps only the flags that are genuinely its own (grid
// dimensions, power modes, report selection) and its report printing.
// The adversarial fault-search flags (-fault-search and friends, see
// RegisterSearch) are registered separately because only tools exposing
// that surface want them.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/scenario"
)

// CampaignFlags bundles the flags every campaign tool shares.
type CampaignFlags struct {
	Workers    int
	Progress   bool
	Checkpoint string
	Pipeline   bool
	Faults     string
	Fast       bool
	Fleet      string

	// Distributed-campaign mode (see distributed.go).
	Serve      string
	Join       string
	WorkerName string
	LeaseTTL   time.Duration

	// Observability (see obs.go).
	Trace   string
	Metrics string
	Debug   string
}

// Register installs the shared campaign flags on fs (normally
// flag.CommandLine) and returns the bundle they fill.
func Register(fs *flag.FlagSet) *CampaignFlags {
	f := &CampaignFlags{}
	fs.IntVar(&f.Workers, "workers", runtime.GOMAXPROCS(0), "parallel run workers (1 = sequential)")
	fs.BoolVar(&f.Progress, "progress", false, "print campaign progress with ETA to stderr")
	fs.StringVar(&f.Checkpoint, "checkpoint", "",
		"journal file for crash-safe resume (rerun the same command to continue); with -serve: the coordinator's record of every merged run, printed again by the local command with the same grid flags; with -join: a journal directory")
	fs.BoolVar(&f.Pipeline, "pipeline", false,
		"run perception on a concurrent stage (tick-stamped delivery; sense-to-act latency emerges from stage cost)")
	fs.StringVar(&f.Faults, "faults", "",
		"fault plan: a preset ("+strings.Join(fault.Presets(), ", ")+") or a spec like \"gps-drift@20+30:mag=0.5;depth-dropout@10+15\"")
	fs.BoolVar(&f.Fast, "fast", false,
		"fast engine mode: tolerance-verified approximate kernels (not valid for bit-identity comparisons against exact-engine digests)")
	fs.StringVar(&f.Fleet, "fleet", "",
		"fleet size for multi-drone worlds, as n or n:spacing=m (empty or 1 = single-drone engine)")
	fs.StringVar(&f.Serve, "serve", "",
		"serve this campaign as a fleet coordinator on this address (e.g. :9131) instead of executing locally")
	fs.StringVar(&f.Join, "join", "",
		"join the coordinator at this base URL (e.g. http://host:9131) as a worker; the coordinator defines the campaign, so grid flags are ignored")
	fs.StringVar(&f.WorkerName, "name", "",
		"worker name for -join (a stable name keeps cell-affinity history and lease journals across restarts; default host:pid)")
	fs.DurationVar(&f.LeaseTTL, "lease-ttl", 30*time.Second,
		"with -serve: how long a lease may miss heartbeats before it is re-dispatched")
	fs.StringVar(&f.Trace, "trace", "",
		"flight-recorder output file: one JSONL run header + tick-stamped event block per run, in canonical order (validate with tools/tracecheck)")
	fs.StringVar(&f.Metrics, "metrics", "",
		"dump the final metrics snapshot in Prometheus text format to this file on exit (\"-\" or \"stderr\" = stderr)")
	fs.StringVar(&f.Debug, "debug", "",
		"serve GET /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9141) for the process lifetime")
	return f
}

// Validate rejects flag combinations that cannot mean anything.
func (f *CampaignFlags) Validate() error {
	if f.Serve != "" && f.Join != "" {
		return fmt.Errorf("-serve and -join are mutually exclusive (one process is either coordinator or worker)")
	}
	if f.LeaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl %s: want a positive duration", f.LeaseTTL)
	}
	if f.Fleet != "" && (f.Pipeline || f.Fast) {
		return fmt.Errorf("-fleet flies the exact inline engine; drop -pipeline/-fast")
	}
	if f.Trace != "" && (f.Serve != "" || f.Join != "") {
		return fmt.Errorf("-trace records locally executed runs; the coordinator flies nothing and a worker's lease order is not the canonical order — drop -trace or run locally")
	}
	if f.Workers < 1 {
		f.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// FaultPlan parses -faults.
func (f *CampaignFlags) FaultPlan() (*fault.Plan, error) { return fault.ParsePlan(f.Faults) }

// FleetSpec parses -fleet.
func (f *CampaignFlags) FleetSpec() (*scenario.FleetSpec, error) {
	return scenario.ParseFleet(f.Fleet)
}

// Knobs parses the shared timing flags for a catalog build. A command
// with its own -pipeline-lag flag sets Knobs.PipelineLag itself.
func (f *CampaignFlags) Knobs() (catalog.Knobs, error) {
	plan, err := f.FaultPlan()
	if err != nil {
		return catalog.Knobs{}, err
	}
	fleet, err := f.FleetSpec()
	if err != nil {
		return catalog.Knobs{}, err
	}
	return catalog.Knobs{Pipeline: f.Pipeline, Fast: f.Fast, Faults: plan, Fleet: fleet}, nil
}

// Options builds the engine options the shared flags describe: worker
// count, ordered delivery, and (with -progress) a throttled ETA line on
// stderr prefixed with the tool name.
func (f *CampaignFlags) Options(tool string) campaign.Options {
	opts := campaign.Options{Workers: f.Workers, Ordered: true}
	if f.Progress {
		lastTick := time.Time{}
		opts.OnProgress = func(p campaign.Progress) {
			if time.Since(lastTick) < 2*time.Second && p.Done != p.Total {
				return
			}
			lastTick = time.Now()
			fmt.Fprintf(os.Stderr, "%s: %d/%d runs, elapsed %s, ETA %s\n",
				tool, p.Done, p.Total, p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
		}
	}
	return opts
}

// OpenCheckpoint opens -checkpoint for the spec (nil when unset),
// printing the standard resume banner when the journal already holds
// finished runs.
func (f *CampaignFlags) OpenCheckpoint(spec campaign.Spec) (*campaign.Journal, error) {
	if f.Checkpoint == "" {
		return nil, nil
	}
	j, err := campaign.OpenJournal(f.Checkpoint, spec)
	if err != nil {
		return nil, err
	}
	if done := j.Len(); done > 0 {
		fmt.Printf("checkpoint %s: resuming with %d/%d runs already on record\n",
			f.Checkpoint, done, spec.Total())
	}
	return j, nil
}

// CheckpointHint prints the rerun-to-resume hint after an interrupted
// campaign.
func (f *CampaignFlags) CheckpointHint(tool string, interrupted bool) {
	if f.Checkpoint != "" && interrupted {
		fmt.Fprintf(os.Stderr, "%s: progress is journaled in %s — rerun the same command to resume\n",
			tool, f.Checkpoint)
	}
}

// Execute flies spec on this machine, the path every bench tool shares:
// -trace and -checkpoint wire into it, and Ctrl-C cancels between runs
// (printing the resume hint). Errors are fatal.
func (f *CampaignFlags) Execute(tool string, spec campaign.Spec, opts campaign.Options) *campaign.Report {
	closeTrace, err := f.WireTrace(&spec, &opts)
	if err != nil {
		Fatal(tool, 1, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	j, err := f.OpenCheckpoint(spec)
	if err != nil {
		Fatal(tool, 1, err)
	}
	if j != nil {
		defer j.Close()
		opts.Checkpoint = j
	}

	report, err := campaign.Execute(ctx, spec, opts)
	if err != nil {
		closeTrace()
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		f.CheckpointHint(tool, ctx.Err() != nil)
		os.Exit(1)
	}
	if err := closeTrace(); err != nil {
		Fatal(tool, 1, err)
	}
	return report
}

// PrintFleetAndDependability prints the hardware tools' airspace and
// fault-campaign rows; each is silent when its knob is off.
func PrintFleetAndDependability(agg scenario.Aggregate) {
	if row := agg.FleetString(); row != "" {
		fmt.Println("\nAirspace deconfliction (fleet campaign)")
		fmt.Println(row)
	}
	if row := agg.DependabilityString(); row != "" {
		fmt.Println("\nDependability (fault campaign)")
		fmt.Println(row)
	}
}

// Fatal prints a tool-prefixed error and exits with the given code.
func Fatal(tool string, code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(code)
}
