package scenario

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/worldgen"
)

// Race-hardening stress for the fleet lockstep runner. Two windows
// matter. Within a run, the runner hands member ticks to helper
// goroutines on idle cores and takes them back before the overlay
// rebuild, the member-order finalization and the separation accounting;
// a fleet flown alone is the one that borrows, so each test flies lone
// fleets. Between runs, every member of every run reads the same shared
// immutable world through worldgen.Shared while mutating its own state,
// and campaign workers do exactly that in parallel; with fewer idle cores
// than fleets those runs fly serially, so each test also flies fleets
// concurrently. -race watches both; beyond race freedom the tests assert
// the acceptance property directly — a fleet run's bits must not depend
// on GOMAXPROCS or on how many fleet missions fly concurrently.

// fleetTiming is the SIL profile flying a 3-drone lockstep fleet.
func fleetTiming() Timing {
	t := SILTiming()
	t.Fleet = &FleetSpec{Size: 3, Spacing: 5}
	return t
}

// TestFleetStressShuffledGOMAXPROCS runs the same fleet cell under a
// shuffled sweep of GOMAXPROCS values, one lone mission and then several
// concurrently per setting, and demands bit-identical results throughout.
func TestFleetStressShuffledGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep of full fleet missions")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	seed := GridSeed(core.V1, 2, 4, 0)
	short := func(sc *worldgen.Scenario, sys *core.System, cfg *RunConfig) {
		cfg.MaxDuration = 60 // bounded missions keep the sweep affordable
	}
	ref, err := RunGridCell(core.V1, 2, 4, seed, fleetTiming(), short)
	if err != nil {
		t.Fatal(err)
	}
	if ref.FleetSize != 3 {
		t.Fatalf("reference run is not a fleet: %+v", ref)
	}

	// Shuffled (fixed permutation — the runs must be order-insensitive
	// anyway) and deliberately including 1, where all concurrent fleets
	// interleave cooperatively on one P.
	sweep := []int{2, 1, prev, 4, 1, 2}
	for _, gomax := range sweep {
		runtime.GOMAXPROCS(gomax)
		lone, err := RunGridCell(core.V1, 2, 4, seed, fleetTiming(), short)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(ref, lone) {
			t.Fatalf("GOMAXPROCS=%d lone fleet diverged\nref: %+v\ngot: %+v", gomax, ref, lone)
		}
		const concurrent = 3
		results := make([]Result, concurrent)
		errs := make([]error, concurrent)
		var wg sync.WaitGroup
		for c := 0; c < concurrent; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c], errs[c] = RunGridCell(core.V1, 2, 4, seed, fleetTiming(), short)
			}(c)
		}
		wg.Wait()
		for c := 0; c < concurrent; c++ {
			if errs[c] != nil {
				t.Fatal(errs[c])
			}
			if !sameResult(ref, results[c]) {
				t.Fatalf("GOMAXPROCS=%d worker %d diverged\nref: %+v\ngot: %+v", gomax, c, ref, results[c])
			}
		}
	}
}

// TestFleetEarlyTerminationTeardown covers the members-ending-early path:
// on a cell where missions end fast (collision-prone under V1), members
// leave the overlay at different ticks while the rest of the formation
// flies on, and the run must stay deterministic through the staggered
// teardown. One lone repetition sends the staggered ends through the
// helper hand-off; the rest run concurrently, so -race sees the
// world-cache release alongside live fleets.
func TestFleetEarlyTerminationTeardown(t *testing.T) {
	// Map 3 scenario 7 under V1 terminates quickly and reliably; any
	// terminal cell works — the point is the staggered member teardown.
	seed := GridSeed(core.V1, 3, 7, 0)
	first, err := RunGridCell(core.V1, 3, 7, seed, fleetTiming(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reps := 8
	if testing.Short() {
		reps = 3
	}
	for rep := 0; rep < reps; rep++ {
		var other Result
		var otherErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			other, otherErr = RunGridCell(core.V1, 3, 7, seed, fleetTiming(), nil)
		}()
		r, err := RunGridCell(core.V1, 3, 7, seed, fleetTiming(), nil)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if otherErr != nil {
			t.Fatal(otherErr)
		}
		if !sameResult(r, other) {
			t.Fatalf("concurrent fleet twin diverged\none: %+v\ntwo: %+v", r, other)
		}
		if !sameResult(first, r) {
			t.Fatalf("teardown rep %d diverged from the lone run\nlone: %+v\ngot:  %+v", rep, first, r)
		}
	}
}

// TestFleetSoloMemberMatchesSoloRun pins the primary-stream guarantee at
// the unit level: the fleet's member 0 flies the exact solo sensor
// streams, so a 1-member "fleet" (normalized to the solo engine by
// Canonical) and a plain solo run are the same bits.
func TestFleetSoloMemberMatchesSoloRun(t *testing.T) {
	seed := GridSeed(core.V1, 0, 0, 0)
	solo, err := RunGridCell(core.V1, 0, 0, seed, SILTiming(), nil)
	if err != nil {
		t.Fatal(err)
	}
	one := SILTiming()
	one.Fleet = &FleetSpec{Size: 1}
	one = one.Canonical()
	if one.Fleet != nil {
		t.Fatal("Canonical kept a single-drone fleet spec")
	}
	normalized, err := RunGridCell(core.V1, 0, 0, seed, one, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(solo, normalized) {
		t.Fatalf("size-1 fleet diverged from solo run\nsolo:  %+v\nfleet: %+v", solo, normalized)
	}
}
