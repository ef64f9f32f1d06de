package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// kind selects how a workload flies its grid and what its traced run adds.
type kind int

const (
	// local flies the grid through campaign.Execute; its traced passes
	// rebuild every system with timed Detector, Map and Planner wrappers.
	local kind = iota
	// fleet flies lockstep fleets through campaign.Execute; wingmen are
	// built inside the fleet runner and cannot be wrapped, so its traced
	// run flies the same cells solo as the base of fleet.solo_ratio.
	fleet
	// loopback flies the grid through a coordinator on 127.0.0.1 and one
	// coord.Work worker; its traced passes time the worker's HTTP requests
	// and its traced run adds a direct campaign.Execute as the base of
	// coord.overhead_pct.
	loopback
)

// workload is one named input set. All four are closed loops over a fixed
// batch: a worker takes its next run only when its last one finishes.
type workload struct {
	name string
	kind kind
	// grid returns the workload's campaign at the default seed.
	grid func() campaign.Spec
	// workers is the engine parallelism: campaign workers, or the
	// loopback worker's EngineWorkers.
	workers int
	// ref is the reference digest at the default seed. golden-exact reads
	// the committed golden file instead (see reference).
	ref digests
}

// digests identify a pass's output: the campaign's aggregate digest and
// the sha256 over its per-run result digests in canonical order. A
// loopback pass exposes only the coordinator's merged aggregates, so its
// Results stay empty.
type digests struct {
	Aggregates string
	Results    string
}

// goldenDigestFile is golden-exact's reference, relative to the checkout.
var goldenDigestFile = filepath.Join("internal", "campaign", "testdata", "golden_sweep_digest.txt")

// workloads lists the benchmark's workloads in the order -workload all
// runs them. The digests were recorded at the default seed.
var workloads = []workload{
	{
		name: "golden-exact",
		kind: local,
		grid: func() campaign.Spec {
			spec := campaign.GoldenGridSpec()
			// Longest generation first: the pass then ends on V1's 40 ms
			// missions instead of a seed-dependent V3 straggler of up to
			// two seconds that leaves the other workers idle. The runs and
			// their seeds are the golden sweep's; resultsDigest restores
			// its order.
			spec.Generations = []core.Generation{core.V3, core.V2, core.V1}
			return spec
		},
		workers: runtime.NumCPU(),
	},
	{
		name: "fast-staged",
		kind: local,
		grid: func() campaign.Spec {
			spec := campaign.GoldenGridSpec()
			spec.Timing = spec.Timing.WithFast()
			return spec
		},
		workers: 1,
		ref: digests{
			Aggregates: "7594826632b1407148b18d7fb58b77bb1ca355a17d0596b082c82f15667ccfc7",
			Results:    "b0db4ca77a2760a7d099dbe6ffd708198159245084a29a244358abf513c4ac0c",
		},
	},
	{
		name: "fleet3-v1",
		kind: fleet,
		grid: func() campaign.Spec {
			timing := scenario.SILTiming()
			timing.Fleet = &scenario.FleetSpec{Size: 3, Spacing: 5}
			return campaign.Spec{
				Maps:        campaign.Range(10),
				Scenarios:   []int{0, 5},
				Generations: []core.Generation{core.V1},
				Timing:      timing,
			}
		},
		workers: 1,
		ref: digests{
			Aggregates: "a4cc5ee66474c2fa11e7214c470e9b9528f03443be6c64d818654d8f763b64af",
			Results:    "cfaed79ef91fb9b090d1a66715090e62daf9ab148a24bb5bf49ff8405c2fc212",
		},
	},
	{
		name: "coord-loopback",
		kind: loopback,
		grid: func() campaign.Spec {
			return campaign.Spec{
				Maps:        campaign.Range(10),
				Scenarios:   campaign.Range(10),
				Generations: []core.Generation{core.V1},
				Timing:      scenario.SILTiming(),
			}
		},
		workers: runtime.NumCPU(),
		ref: digests{
			Aggregates: "e4b9e2c058b32f0574e61335a61e0b5f0530fdbabc0ff77fb1384f0f1666c0a3",
		},
	},
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// defaultSeed keeps every run's canonical scenario.GridSeed, which is what
// the reference digests were recorded at.
const defaultSeed = 0

// withSeed returns spec with every run's seed re-derived from the workload
// seed. The derivation goes through Spec.Seed, so it reaches the
// coordinator's leases, which carry resolved seeds by value.
func withSeed(spec campaign.Spec, seed int64) campaign.Spec {
	if seed == defaultSeed {
		return spec
	}
	spec.Seed = func(c campaign.Cell) int64 {
		return mixSeed(scenario.GridSeed(c.Gen, c.MapIdx, c.ScenarioIdx, c.Rep), seed)
	}
	return spec
}

// mixSeed is a SplitMix64 finalizer over (run seed, workload seed): any
// change in either diffuses over every bit of the derived seed.
func mixSeed(run, seed int64) int64 {
	z := uint64(run) ^ uint64(seed)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// reference returns the digests every pass of w must reproduce at seed,
// or the zero value when the first pass establishes them (any seed but
// the default is checked by pass-to-pass identity).
func reference(w workload, seed int64, root string) (digests, error) {
	if seed != defaultSeed {
		return digests{}, nil
	}
	if w.name != "golden-exact" {
		if w.ref.Aggregates == "" {
			return digests{}, fmt.Errorf("workload %s has no recorded reference digest", w.name)
		}
		return w.ref, nil
	}
	raw, err := os.ReadFile(filepath.Join(root, goldenDigestFile))
	if err != nil {
		return digests{}, fmt.Errorf("golden reference: %w", err)
	}
	var d digests
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, _ := strings.Cut(line, " ")
		switch k {
		case "aggregates":
			d.Aggregates = v
		case "results":
			d.Results = v
		}
	}
	if d.Aggregates == "" || d.Results == "" {
		return digests{}, fmt.Errorf("golden reference %s: want aggregates and results lines", goldenDigestFile)
	}
	return d, nil
}
