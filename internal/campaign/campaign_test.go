package campaign

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// eqFloat is bit-equality except that NaN equals NaN (a collision run has
// no landing error, and reflect.DeepEqual would reject the NaN pair).
func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// sameResult reports field-for-field equality of two run results, NaN-
// tolerant in the float metrics. Any other difference is a determinism
// violation.
func sameResult(a, b scenario.Result) bool {
	return a.Outcome == b.Outcome &&
		a.FinalState == b.FinalState &&
		a.Duration == b.Duration &&
		a.Landed == b.Landed &&
		eqFloat(a.LandingError, b.LandingError) &&
		eqFloat(a.DetectionError, b.DetectionError) &&
		a.MarkerVisibleFrames == b.MarkerVisibleFrames &&
		a.MarkerDetectedFrames == b.MarkerDetectedFrames &&
		a.OnWater == b.OnWater &&
		a.MaxGPSDrift == b.MaxGPSDrift &&
		a.DegradedTicks == b.DegradedTicks &&
		a.FaultInjections == b.FaultInjections &&
		a.Recovered == b.Recovered &&
		a.RecoverySeconds == b.RecoverySeconds &&
		a.AbortCause == b.AbortCause &&
		sameStats(a.Stats, b.Stats)
}

func sameStats(a, b core.Stats) bool {
	pa, pb := a.DetectionPositions, b.DetectionPositions
	a.DetectionPositions, b.DetectionPositions = nil, nil
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(pa, pb)
}

// testSpec is a small-but-mixed grid: the cheap V1 generation over maps
// and scenarios from both weather halves, two sensor-seed repetitions
// (one under -short, where the closed-loop grid dominates CI time).
func testSpec() Spec {
	repeats := 2
	if testing.Short() {
		repeats = 1
	}
	return Spec{
		Maps:        Range(3),
		Scenarios:   []int{0, 5},
		Repeats:     repeats,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
}

// sequentialResults drives the spec's grid through RunGridCell in the
// legacy nested-loop order (generations outermost, then maps, scenarios,
// repetitions) — the reference the parallel engine must reproduce bit for
// bit. This is exactly what the removed scenario.BatchScenarios shim did.
func sequentialResults(t *testing.T, s Spec) []scenario.Result {
	t.Helper()
	var out []scenario.Result
	for _, gen := range s.Generations {
		for mi := 0; mi < len(s.Maps); mi++ {
			for _, si := range s.Scenarios {
				for rep := 0; rep < s.Repeats; rep++ {
					r, err := scenario.RunGridCell(gen, mi, si,
						scenario.GridSeed(gen, mi, si, rep), s.Timing, nil)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, r)
				}
			}
		}
	}
	return out
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := testSpec()
	want := sequentialResults(t, spec)

	counts := []int{1, 4, 8}
	if testing.Short() {
		counts = []int{1, 4}
	}
	for _, workers := range counts {
		rep, err := Execute(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Workers != workers {
			t.Errorf("workers=%d: report says %d", workers, rep.Workers)
		}
		if len(rep.Results) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(rep.Results), len(want))
		}
		// Bit-identical to the sequential engine: sameResult covers every
		// field including the float metrics and nested stats.
		for i := range want {
			if !sameResult(rep.Results[i], want[i]) {
				t.Fatalf("workers=%d: result %d diverges from sequential engine:\n got %+v\nwant %+v",
					workers, i, rep.Results[i], want[i])
			}
		}
	}
}

func TestOrderedDeliveryMatchesSequentialCallbacks(t *testing.T) {
	spec := testSpec()
	want := sequentialResults(t, spec)

	var gotRuns []Run
	var gotResults []scenario.Result
	rep, err := Execute(context.Background(), spec, Options{
		Workers: 4,
		Ordered: true,
		OnResult: func(ru Run, r scenario.Result) {
			gotRuns = append(gotRuns, ru)
			gotResults = append(gotResults, r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotResults) != len(want) {
		t.Fatalf("%d callbacks, want %d", len(gotResults), len(want))
	}
	for i := range want {
		if gotRuns[i].Index != i {
			t.Fatalf("callback %d delivered run %d — ordered delivery broken", i, gotRuns[i].Index)
		}
		if !sameResult(gotResults[i], want[i]) {
			t.Fatalf("ordered callback %d diverges from sequential engine", i)
		}
	}
	// The canonical enumeration matches the legacy nested-loop order.
	runs, err := spec.Runs()
	if err != nil {
		t.Fatal(err)
	}
	var wantCells []Cell
	for _, gen := range spec.Generations {
		for _, mi := range spec.Maps {
			for _, si := range spec.Scenarios {
				for rep := 0; rep < spec.Repeats; rep++ {
					wantCells = append(wantCells, Cell{Gen: gen, MapIdx: mi, ScenarioIdx: si, Rep: rep})
				}
			}
		}
	}
	for i, ru := range runs {
		if ru.Cell != wantCells[i] {
			t.Fatalf("enumeration order wrong at %d: %+v, want %+v", i, ru.Cell, wantCells[i])
		}
	}
	if rep.Flown != len(runs) || rep.Replayed != 0 || rep.Wall <= 0 || rep.Busy <= 0 {
		t.Errorf("report: %d flown, %d replayed, %v wall, %v busy; want all %d flown in measured time",
			rep.Flown, rep.Replayed, rep.Wall, rep.Busy, len(runs))
	}
}

func TestDiscardResultsStreamsAggregates(t *testing.T) {
	spec := testSpec()
	want := scenario.Summarize(core.V1.String(), sequentialResults(t, spec))

	var callbacks int
	rep, err := Execute(context.Background(), spec, Options{
		Workers:        4,
		Ordered:        true,
		DiscardResults: true,
		OnResult:       func(Run, scenario.Result) { callbacks++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != nil {
		t.Error("DiscardResults still buffered results")
	}
	if callbacks != spec.Total() {
		t.Errorf("%d callbacks, want %d", callbacks, spec.Total())
	}
	got := rep.Aggregates[core.V1]
	if got == nil {
		t.Fatal("no streamed aggregate for V1")
	}
	if got.Runs != want.Runs || got.Success != want.Success ||
		got.Collision != want.Collision || got.PoorLanding != want.PoorLanding {
		t.Errorf("streamed aggregate counts %+v, want %+v", got, want)
	}
	if got.FalseNegativeRate != want.FalseNegativeRate {
		t.Errorf("streamed FNR %v, want %v (integer-derived, must be exact)",
			got.FalseNegativeRate, want.FalseNegativeRate)
	}
	if !approx(got.MeanLandingError, want.MeanLandingError) ||
		!approx(got.MeanDetectionError, want.MeanDetectionError) {
		t.Errorf("streamed means (%v, %v), want (%v, %v)",
			got.MeanLandingError, got.MeanDetectionError,
			want.MeanLandingError, want.MeanDetectionError)
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(1+max(abs(a), abs(b)))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestProgressReportsETA(t *testing.T) {
	spec := Spec{
		Maps:        []int{0, 1},
		Scenarios:   []int{0, 5},
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
	var progresses []Progress
	_, err := Execute(context.Background(), spec, Options{
		Workers:    2,
		OnProgress: func(p Progress) { progresses = append(progresses, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(progresses) != spec.Total() {
		t.Fatalf("%d progress callbacks, want %d", len(progresses), spec.Total())
	}
	for i, p := range progresses {
		if p.Done != i+1 || p.Total != spec.Total() {
			t.Errorf("progress %d = %d/%d", i, p.Done, p.Total)
		}
		if p.Elapsed <= 0 {
			t.Errorf("progress %d: no elapsed time", i)
		}
	}
	if last := progresses[len(progresses)-1]; last.ETA != 0 {
		t.Errorf("final ETA %v, want 0", last.ETA)
	}
	if first := progresses[0]; first.ETA <= 0 {
		t.Errorf("first ETA %v, want > 0", first.ETA)
	}
}

func TestCancellationStopsCampaign(t *testing.T) {
	// A big grid that would take a while; cancel after the first result.
	spec := Spec{
		Maps:        Range(10),
		Scenarios:   Range(10),
		Repeats:     3,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64
	_, err := Execute(ctx, spec, Options{
		Workers: 2,
		OnResult: func(Run, scenario.Result) {
			if delivered.Add(1) == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := delivered.Load(); n >= int64(spec.Total()) {
		t.Errorf("cancellation did not stop the campaign: %d/%d runs delivered", n, spec.Total())
	}
}

func TestPerRunErrorCancelsCampaign(t *testing.T) {
	// Map index 99 does not exist: worldgen fails on the very first run.
	spec := Spec{
		Maps:        []int{99},
		Scenarios:   []int{0},
		Generations: []core.Generation{core.V1},
	}
	if _, err := Execute(context.Background(), spec, Options{Workers: 2}); err == nil {
		t.Fatal("bad map index did not error")
	}
	// Unknown generation fails at BuildSystem instead.
	spec = Spec{
		Maps:        []int{0},
		Scenarios:   []int{0},
		Generations: []core.Generation{core.Generation(42)},
	}
	if _, err := Execute(context.Background(), spec, Options{Workers: 1}); err == nil {
		t.Fatal("unknown generation did not error")
	}
}

func TestExplicitCellsAndCustomSeed(t *testing.T) {
	// The field-campaign shape: a diagonal of (map, scenario) pairs with a
	// bespoke per-flight seed, not a product grid.
	var cells []Cell
	for i := 0; i < 4; i++ {
		cells = append(cells, Cell{
			Gen:         core.V1,
			MapIdx:      []int{0, 2, 4, 5}[i%4],
			ScenarioIdx: i % worldgen.NumScenariosPerMap,
			Rep:         i,
		})
	}
	seed := func(c Cell) int64 { return int64(c.Rep)*104_729 + 77 }
	spec := Spec{Cells: cells, Seed: seed, Timing: scenario.SILTiming()}

	if spec.Total() != 4 {
		t.Fatalf("Total = %d, want 4", spec.Total())
	}
	runs, err := spec.Runs()
	if err != nil {
		t.Fatal(err)
	}
	for i, ru := range runs {
		if ru.Seed != seed(cells[i]) {
			t.Errorf("run %d seed %d, want %d", i, ru.Seed, seed(cells[i]))
		}
	}

	// Parallel explicit-cell execution matches running each cell by hand.
	rep, err := Execute(context.Background(), spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		want, err := scenario.RunGridCell(c.Gen, c.MapIdx, c.ScenarioIdx, seed(c), spec.Timing, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(rep.Results[i], want) {
			t.Fatalf("cell %d diverges from direct execution", i)
		}
	}
}

func TestConfigureHookRunsPerRun(t *testing.T) {
	spec := Spec{
		Maps:        []int{0},
		Scenarios:   []int{0, 5},
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
	var hooks atomic.Int64
	spec.Configure = func(ru Run, sc *worldgen.Scenario, sys *core.System, cfg *scenario.RunConfig) {
		hooks.Add(1)
		if sc == nil || sys == nil || cfg == nil {
			t.Error("configure hook got nil arguments")
		}
		if cfg.Seed != ru.Seed {
			t.Errorf("config seed %d, run seed %d", cfg.Seed, ru.Seed)
		}
	}
	if _, err := Execute(context.Background(), spec, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if hooks.Load() != int64(spec.Total()) {
		t.Errorf("%d configure calls, want %d", hooks.Load(), spec.Total())
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Execute(context.Background(), Spec{}, Options{}); err == nil {
		t.Error("empty spec did not error")
	}
	if _, err := (Spec{Maps: []int{0}}).Runs(); err == nil {
		t.Error("spec without scenarios/generations did not error")
	}
	if got := Range(3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("Range(3) = %v", got)
	}
}
