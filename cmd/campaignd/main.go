// Command campaignd is the standalone fleet daemon for distributed
// campaigns.
//
//	campaignd -serve :9131 -tool sil -repeats 3        # coordinator
//	campaignd -join http://host:9131 -workers 8        # worker (any campaign)
//
// Serve mode builds the named catalog campaign (sil, hil-maxn, hil-5w or
// field) exactly as its bench tool runs it locally and dispatches it to
// pulling workers: adaptive lease sizes, cell-affine placement, heartbeat
// deadlines with automatic re-dispatch, digest-verified merge. Join mode
// is a pure worker — the campaign arrives inside leases, so one campaignd
// binary on every machine can serve or join anything; the bench tools'
// own -serve/-join flags are the same machinery.
//
// With -checkpoint the coordinator journals every run it merges: rerun
// the same -serve command to resume an interrupted campaign, or run the
// owning tool with the same grid flags and -checkpoint <journal> to print
// its paper tables. Progress is live on GET /v1/status.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/campaign"
	"repro/internal/catalog"
	"repro/internal/cliutil"
	"repro/internal/core"
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

	// The catalog builds the campaign exactly as the named tool does, so a
	// fleet run's digest matches the single-machine tool's.
	c, err := catalog.Lookup(*tool)
	if err != nil {
		cliutil.Fatal("campaignd", 2, fmt.Errorf("-tool: %w", err))
	}
	knobs, err := cf.Knobs()
	if err != nil {
		cliutil.Fatal("campaignd", 2, err)
	}
	knobs.PipelineLag = *pipelineLag
	spec, err := c.Spec(catalog.Grid{
		Maps: *maps, Scenarios: *scenarios, Repeats: *repeats, Systems: *gens, Runs: *runs,
	}, knobs)
	if err != nil {
		cliutil.Fatal("campaignd", 2, err)
	}

	aggs, _ := cf.Distributed("campaignd", spec, c.Profile())
	if aggs == nil {
		return
	}
	// Generic per-generation summary; the owning tool renders the full
	// paper tables from the -checkpoint journal.
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
