package scenario

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

// planTiming returns the SIL profile with the staged planner enabled at
// delivery latency k (perception stays inline).
func planTiming(k int) Timing {
	t := SILTiming()
	t.PlanLatencyTicks = k
	return t
}

// TestWithFastProfile locks the fast-profile derivation: WithFast must
// switch on the fast kernels AND the staged perception/planner pair, while
// preserving latencies the caller already chose.
func TestWithFastProfile(t *testing.T) {
	ft := SILTiming().WithFast()
	if !ft.Fast || ft.Pipeline != PipelineOn {
		t.Fatalf("WithFast: Fast=%v Pipeline=%v", ft.Fast, ft.Pipeline)
	}
	// SIL: DetectPeriod 0.25 s at Dt 0.05 s → perception delivers at k=5.
	if ft.PipelineLatencyTicks != 5 || ft.PlanLatencyTicks != 2 {
		t.Fatalf("WithFast defaults: perception k=%d plan k=%d", ft.PipelineLatencyTicks, ft.PlanLatencyTicks)
	}
	pre := SILTiming()
	pre.PipelineLatencyTicks = 5
	pre.PlanLatencyTicks = 3
	ft = pre.WithFast()
	if ft.PipelineLatencyTicks != 5 || ft.PlanLatencyTicks != 3 {
		t.Fatalf("WithFast clobbered chosen latencies: perception k=%d plan k=%d",
			ft.PipelineLatencyTicks, ft.PlanLatencyTicks)
	}
}

// TestPlanStageDeterministic: same seed + same plan latency → bit-identical
// Results across repeated runs, with the planner on its own goroutine.
func TestPlanStageDeterministic(t *testing.T) {
	seed := GridSeed(core.V3, 2, 4, 1)
	var first Result
	for rep := 0; rep < 3; rep++ {
		r, err := RunGridCell(core.V3, 2, 4, seed, planTiming(2), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			first = r
			continue
		}
		if !sameResult(first, r) {
			t.Fatalf("staged-planner run %d diverged\nfirst: %+v\nrepeat: %+v", rep, first, r)
		}
	}
}

// TestPlanStageLatencyChangesDelivery documents that plan latency is a real
// dependability knob — the paper's "trajectory failed to create in time":
// a large k must perturb at least one run of a small sweep.
func TestPlanStageLatencyChangesDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep of full missions")
	}
	changed := false
	for _, mi := range []int{2, 4, 8} {
		seed := GridSeed(core.V3, mi, 4, 0)
		base, err := RunGridCell(core.V3, mi, 4, seed, SILTiming(), nil)
		if err != nil {
			t.Fatal(err)
		}
		delayed, err := RunGridCell(core.V3, mi, 4, seed, planTiming(10), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(base, delayed) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("plan k=10 produced bit-identical results to inline planning on every cell; latency is not being applied")
	}
}

// TestFastProfileDeterministic is the fast mode's scheduling-independence
// contract: with both stages running (perception and planner goroutines)
// and all fast kernels on, the same seed must give bit-identical Results
// across repeats, GOMAXPROCS settings, and concurrent missions.
func TestFastProfileDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	seed := GridSeed(core.V3, 2, 4, 0)
	ref, err := RunGridCell(core.V3, 2, 4, seed, SILTiming().WithFast(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sweep := []int{1, 2, prev}
	if testing.Short() {
		sweep = []int{1, prev}
	}
	for _, gomax := range sweep {
		runtime.GOMAXPROCS(gomax)
		const concurrent = 2
		results := make([]Result, concurrent)
		errs := make([]error, concurrent)
		var wg sync.WaitGroup
		for c := 0; c < concurrent; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c], errs[c] = RunGridCell(core.V3, 2, 4, seed, SILTiming().WithFast(), nil)
			}(c)
		}
		wg.Wait()
		for c := 0; c < concurrent; c++ {
			if errs[c] != nil {
				t.Fatal(errs[c])
			}
			if !sameResult(ref, results[c]) {
				t.Fatalf("GOMAXPROCS=%d worker %d diverged\nref: %+v\ngot: %+v", gomax, c, results[c], ref)
			}
		}
	}
}

// TestPlanStageEarlyTerminationDrains covers the stage teardown with a
// plan potentially still in flight: collision cells end abruptly, and the
// deferred shutdown must drain the planner goroutine every time.
func TestPlanStageEarlyTerminationDrains(t *testing.T) {
	seed := GridSeed(core.V1, 3, 7, 0)
	var first Result
	reps := 6
	if testing.Short() {
		reps = 2
	}
	for rep := 0; rep < reps; rep++ {
		r, err := RunGridCell(core.V1, 3, 7, seed, planTiming(6), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			first = r
			continue
		}
		if !sameResult(first, r) {
			t.Fatalf("teardown rep %d diverged\nfirst: %+v\ngot:   %+v", rep, first, r)
		}
	}
}

// TestPlanStageStatsAccumulate: staged runs must account their plan counts
// and stage time into the process-wide registry series silbench reports.
func TestPlanStageStatsAccumulate(t *testing.T) {
	runs, plans, busy := mPlanRuns.Load(), mPlanDelivered.Load(), mPlanStageNs.Load()
	if _, err := RunGridCell(core.V3, 2, 4, GridSeed(core.V3, 2, 4, 0), planTiming(2), nil); err != nil {
		t.Fatal(err)
	}
	if got := mPlanRuns.Load(); got <= runs {
		t.Fatalf("runs did not advance: %d -> %d", runs, got)
	}
	if got := mPlanDelivered.Load(); got <= plans {
		t.Fatalf("no plans accounted: %d -> %d", plans, got)
	}
	if got := mPlanStageNs.Load(); got <= busy {
		t.Fatalf("no stage time accounted: %d -> %d", busy, got)
	}
}
