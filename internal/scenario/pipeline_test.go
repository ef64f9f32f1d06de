package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

// pipelineTiming returns the SIL profile with the staged runner enabled at
// delivery latency k.
func pipelineTiming(k int) Timing {
	t := SILTiming()
	t.Pipeline = PipelineOn
	t.PipelineLatencyTicks = k
	return t
}

// oraclePlan is one fault plan the k=0 oracles fly (nil: nominal).
type oraclePlan struct {
	name string
	plan *fault.Plan
}

// oraclePlans returns nominal and every fault preset, trimmed under
// -short to the presets that rewire the perception side (dropouts and
// noise, detector taps, link blackouts).
func oraclePlans(t *testing.T) []oraclePlan {
	t.Helper()
	names := fault.Presets()
	if testing.Short() {
		names = []string{"sensor", "detector", "blackout"}
	}
	plans := []oraclePlan{{name: "nominal"}}
	for _, name := range names {
		plan, err := fault.ParsePlan(name)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, oraclePlan{name, plan})
	}
	return plans
}

// TestPipelineSyncMatchesInline is the pipeline's inline oracle: with
// k == 0 the staged runner performs a synchronous handoff each tick, so
// every Result must be bit-identical to PipelineOff — same captures, same
// detections, same accounting, different machinery — nominally and under
// every fault preset. Under -short the presets fly the first cell only.
func TestPipelineSyncMatchesInline(t *testing.T) {
	type cell struct {
		gen    core.Generation
		mi, si int
	}
	cells := []cell{
		{core.V3, 2, 4}, {core.V3, 4, 0}, {core.V1, 1, 5}, {core.V2, 6, 2},
	}
	if testing.Short() {
		cells = cells[:2]
	}
	for ci, c := range cells {
		seed := GridSeed(c.gen, c.mi, c.si, 0)
		for _, p := range oraclePlans(t) {
			if testing.Short() && ci > 0 && p.plan != nil {
				continue
			}
			off := SILTiming()
			off.Faults = p.plan
			on := off
			on.Pipeline = PipelineOn
			on.PipelineLatencyTicks = 0
			want, err := RunGridCell(c.gen, c.mi, c.si, seed, off, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunGridCell(c.gen, c.mi, c.si, seed, on, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(want, got) {
				t.Fatalf("%v map %d scenario %d, %s: synchronous pipeline diverged from inline\ninline:    %+v\npipelined: %+v",
					c.gen, c.mi, c.si, p.name, want, got)
			}
		}
	}
}

// TestPipelineDeterministic asserts the acceptance property of PipelineOn:
// same seed + same k → bit-identical Results across repeated runs (the
// GOMAXPROCS sweep lives in the race stress test).
func TestPipelineDeterministic(t *testing.T) {
	seed := GridSeed(core.V3, 2, 4, 1)
	var first Result
	for rep := 0; rep < 3; rep++ {
		r, err := RunGridCell(core.V3, 2, 4, seed, pipelineTiming(3), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			first = r
			continue
		}
		if !sameResult(first, r) {
			t.Fatalf("pipelined run %d diverged from run 0\nfirst: %+v\nrepeat: %+v", rep, first, r)
		}
	}
}

// TestPipelineLatencyChangesDelivery documents that k is a real knob: a
// large delivery latency must perturb at least one run of a small sweep
// (if it never did, the pipeline would not be modeling latency at all).
func TestPipelineLatencyChangesDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep of full missions")
	}
	changed := false
	for _, mi := range []int{2, 4, 8} {
		seed := GridSeed(core.V3, mi, 4, 0)
		base, err := RunGridCell(core.V3, mi, 4, seed, pipelineTiming(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		delayed, err := RunGridCell(core.V3, mi, 4, seed, pipelineTiming(12), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(base, delayed) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("k=12 produced bit-identical results to k=0 on every cell; latency is not being applied")
	}
}

// TestPipelineApplyLag proves every applied perception batch records its
// tick-stamped delivery delay on the flight recorder — exactly k for every
// batch — and that the platform model keeps charging module work under
// the pipelined runner.
func TestPipelineApplyLag(t *testing.T) {
	const k = 2
	tr := obs.NewTrace(1 << 16)
	platform := &Platform{Cores: 4, CoreSpeed: 1, DetectMS: 380, DepthMS: 130, PlanMS: 1100,
		ControlMS: 6, FeedMS: 1100, MemBaseMB: 1970, MemBufferMB: 150}
	configure := func(sc *worldgen.Scenario, sys *core.System, cfg *RunConfig) {
		cfg.Platform = platform
		cfg.Recorder = tr
	}
	res, err := RunGridCell(core.V3, 2, 4, GridSeed(core.V3, 2, 4, 0), pipelineTiming(k), configure)
	if err != nil {
		t.Fatal(err)
	}
	applies, samples := 0, 0
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case "apply":
			applies++
			if ev.Value != k {
				t.Fatalf("batch at tick %d delivered with delay %v ticks, want %d", ev.Tick, ev.Value, k)
			}
		case "resource":
			samples++
		}
	}
	if applies == 0 {
		t.Fatal("no perception batches applied")
	}
	if samples == 0 || res.Resources == nil || res.Resources.MeanCPU <= 0 {
		t.Fatalf("platform load lost under the pipeline: %d samples, summary %+v", samples, res.Resources)
	}
}

// TestPipelineStatsAccumulate checks the process-wide overlap counters the
// bench commands report.
func TestPipelineStatsAccumulate(t *testing.T) {
	before := ReadPipelineStats()
	if _, err := RunGridCell(core.V3, 2, 4, GridSeed(core.V3, 2, 4, 2), pipelineTiming(2), nil); err != nil {
		t.Fatal(err)
	}
	after := ReadPipelineStats()
	if after.Runs != before.Runs+1 {
		t.Fatalf("Runs %d -> %d, want +1", before.Runs, after.Runs)
	}
	if after.Batches <= before.Batches {
		t.Fatalf("Batches %d -> %d, want growth", before.Batches, after.Batches)
	}
	if after.StageBusy <= before.StageBusy || after.Wall <= before.Wall {
		t.Fatal("stage/wall time did not accumulate")
	}
}

// TestPipelineModeString pins the mode labels used in bench output.
func TestPipelineModeString(t *testing.T) {
	if PipelineOff.String() != "off" || PipelineOn.String() != "on" {
		t.Fatalf("mode strings: %q/%q", PipelineOff, PipelineOn)
	}
	if PipelineMode(9).String() != "unknown" {
		t.Fatal("out-of-range mode should stringify as unknown")
	}
}
