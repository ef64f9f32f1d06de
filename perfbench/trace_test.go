package main

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/planning"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// tracedMatchesUntraced flies spec untraced and traced and requires equal
// digests; it returns the traced pass's folded layers.
func tracedMatchesUntraced(t *testing.T, spec campaign.Spec) *layers {
	t.Helper()
	plain := localPass(context.Background(), spec, 1)
	lt := &layerTrace{}
	traced := spec
	traced.Configure = lt.configure
	got := localPass(context.Background(), traced, 1)
	if plain.err != nil || got.err != nil || lt.err != nil {
		t.Fatalf("passes failed: untraced %v, traced %v, configure %v", plain.err, got.err, lt.err)
	}
	if got.d != plain.d {
		t.Fatalf("traced digests %+v differ from untraced %+v", got.d, plain.d)
	}
	if len(lt.runs) != spec.Total() {
		t.Fatalf("traced %d runs, want %d", len(lt.runs), spec.Total())
	}
	return lt.total()
}

// Pitfall 1: the runner's EnableFastKernels cannot see through the
// wrappers, so the traced run switches the inner modules itself. The
// staged fast profile also calls Plan and map queries off the control
// loop, which the race detector watches here.
func TestTracedFastRunEnablesInnerKernels(t *testing.T) {
	spec := campaign.Spec{
		Maps: []int{1}, Scenarios: []int{0},
		Generations: []core.Generation{core.V3},
		Timing:      scenario.SILTiming().WithFast(),
	}
	l := tracedMatchesUntraced(t, spec)
	if l.detect.calls == 0 || l.plan.calls == 0 || l.insert.calls == 0 || l.queries.Load() == 0 {
		t.Errorf("a V3 mission left a layer untraced: detect %d, plan %d, insert %d, queries %d",
			l.detect.calls, l.plan.calls, l.insert.calls, l.queries.Load())
	}

	sc, release, err := worldgen.Shared.Acquire(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	sys, err := scenario.BuildSystem(core.V3, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.DefaultRunConfig(7)
	cfg.Timing = spec.Timing
	(&layerTrace{}).configure(campaign.Run{Seed: 7}, sc, sys, &cfg)
	inner, ok := sys.Detector().(tracedDetector).inner.(*detect.Learned)
	if !ok || !inner.Fast {
		t.Error("traced fast run left the inner learned detector on the exact kernel")
	}
	rrt := planning.NewRRTStar(planning.DefaultRRTStarConfig(), 7)
	enableFast(inner, rrt)
	if !rrt.Fast {
		t.Error("enableFast left the inner RRT* planner on the exact kernel")
	}
}

// Pitfall 2: V2 re-centres its LocalMap every epoch, so the rebuilt
// system's LocalMap must be the grid the traced Map forwards to.
func TestTracedV2KeepsItsLocalGrid(t *testing.T) {
	sc, release, err := worldgen.Shared.Acquire(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	sys, err := scenario.BuildSystem(core.V2, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid, ok := sys.Map().(*mapping.LocalGrid)
	if !ok {
		t.Fatalf("V2 map is %T, want *mapping.LocalGrid", sys.Map())
	}
	cfg := scenario.DefaultRunConfig(3)
	(&layerTrace{}).configure(campaign.Run{Seed: 3}, sc, sys, &cfg)
	if tm, ok := sys.Map().(tracedMap); !ok || tm.Map != mapping.Map(grid) {
		t.Fatalf("rebuilt V2 map is %T, want a tracedMap over the original grid", sys.Map())
	}

	tracedMatchesUntraced(t, campaign.Spec{
		Maps: []int{1}, Scenarios: []int{0, 5},
		Generations: []core.Generation{core.V2},
		Timing:      scenario.SILTiming(),
	})
}

// Pitfall 3: the wrappers' counters are shared by the control loop and the
// stages. Run with -race.
func TestTracedCountersAreGoroutineSafe(t *testing.T) {
	l := &layers{}
	m := tracedMap{mapping.NullMap{}, l}
	p := tracedPlanner{planning.StraightLine{}, &l.plan}
	const goroutines, calls = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				m.Blocked(geom.Vec3{})
				m.State(geom.Vec3{})
				m.InsertCloud(geom.Vec3{}, nil, nil)
				if _, err := p.Plan(geom.Vec3{}, geom.V3(1, 0, 0), m); err != nil {
					t.Error(err)
				}
				l.detect.observe(time.Now(), i%2 == 0)
			}
		}()
	}
	wg.Wait()
	n := goroutines * calls
	if got := l.queries.Load(); got != int64(2*n) {
		t.Errorf("queries = %d, want %d", got, 2*n)
	}
	if l.insert.calls != n || l.plan.calls != n || l.detect.calls != n || l.detect.failed != n/2 {
		t.Errorf("calls: insert %d, plan %d, detect %d (%d failed); want %d each, %d failed",
			l.insert.calls, l.plan.calls, l.detect.calls, l.detect.failed, n, n/2)
	}
	if len(l.detect.samples) != n {
		t.Errorf("detect kept %d samples, want %d", len(l.detect.samples), n)
	}
}
