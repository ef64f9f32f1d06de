package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// fleetSpec is a small mixed grid flown as 3-drone lockstep fleets: the
// airspace analogue of faultSpec. V1 keeps it cheap enough for -short.
func fleetSpec() Spec {
	timing := scenario.SILTiming()
	timing.Fleet = &scenario.FleetSpec{Size: 3, Spacing: 5}
	return Spec{
		Maps:        []int{0, 1},
		Scenarios:   []int{0, 5},
		Repeats:     1,
		Generations: []core.Generation{core.V1},
		Timing:      timing,
	}
}

// fleetRef executes the fleet grid exactly once per test binary — serial,
// so it doubles as the worker-count oracle — and hands the same
// uninterrupted reference report to every test in the battery. Sharing it
// is sound precisely because of what the battery proves: the report is a
// pure function of (seed, FleetSpec), so any test that would be perturbed
// by the sharing is a test that just caught a real bug. Fleet missions
// cost ~fleet-size× a solo run, so under -race the duplicate executions
// this saves are the difference between the package fitting its timeout
// or not.
var fleetRef = sync.OnceValues(func() (*Report, error) {
	return Execute(context.Background(), fleetSpec(), Options{Workers: 1})
})

// goldenFleetPath commits the fleet campaign's oracle digests, exactly
// like the solo sweep's golden_sweep_digest.txt: the moment any layer —
// the lockstep runner, the overlay, member seeding, spawn placement, the
// deconfliction accounting, the codec — drifts a fleet campaign by one
// bit, this file catches it. Regenerate after an *intentional* semantic
// change with:
//
//	GOLDEN_UPDATE=1 go test ./internal/campaign -run TestGoldenFleetDigest
const goldenFleetPath = "testdata/golden_fleet_digest.txt"

// TestGoldenFleetDigest executes the fleet grid and compares its
// aggregate digest and per-run digest chain against the committed golden
// file.
func TestGoldenFleetDigest(t *testing.T) {
	spec := fleetSpec()
	rep, err := fleetRef()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != spec.Total() {
		t.Fatalf("fleet sweep ran %d runs, want %d", len(rep.Results), spec.Total())
	}

	checkGoldenDigests(t, goldenFleetPath, "fleet", rep)
}

// TestFleetCampaignDeterministicAcrossWorkers: a fixed (seed, FleetSpec)
// fleet campaign is bit-identical at any worker count, results and
// aggregates — and every run actually carries the fleet metrics. The
// serial fleetRef report is the oracle; one 4-worker execution is the
// candidate.
func TestFleetCampaignDeterministicAcrossWorkers(t *testing.T) {
	spec := fleetSpec()
	ref, err := fleetRef()
	if err != nil {
		t.Fatal(err)
	}
	agg := ref.Aggregates[core.V1]
	if agg.FleetRuns != spec.Total() {
		t.Errorf("FleetRuns = %d, want %d (every run flies the fleet)", agg.FleetRuns, spec.Total())
	}
	if agg.FleetDrones != 3*spec.Total() {
		t.Errorf("FleetDrones = %d, want %d", agg.FleetDrones, 3*spec.Total())
	}
	for i, r := range ref.Results {
		if r.FleetSize != 3 {
			t.Fatalf("run %d: FleetSize = %d, want 3", i, r.FleetSize)
		}
	}

	rep, err := Execute(context.Background(), spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Digest(); got != ref.Digest() {
		t.Fatalf("fleet campaign digest depends on worker count: %s vs %s", ref.Digest(), got)
	}
	for i := range ref.Results {
		if !sameResult(rep.Results[i], ref.Results[i]) {
			t.Fatalf("fleet run %d differs across worker counts", i)
		}
	}
}

// TestFleetCampaignResumeAfterCancel: cancel a checkpointed fleet
// campaign partway, resume it, and require the resumed report to be
// bit-identical to an uninterrupted run — deconfliction metrics included.
func TestFleetCampaignResumeAfterCancel(t *testing.T) {
	spec := fleetSpec()
	ref, err := fleetRef()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	j, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err = Execute(ctx, spec, Options{
		Workers:    2,
		Checkpoint: j,
		OnResult: func(Run, scenario.Result) {
			n++
			if n == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: err = %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() == 0 {
		t.Fatal("nothing journaled before the cancel")
	}
	resumed, err := Execute(context.Background(), spec, Options{Checkpoint: j2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Digest() != ref.Digest() {
		t.Fatalf("resumed fleet campaign digest %s != uninterrupted %s", resumed.Digest(), ref.Digest())
	}
	for i := range ref.Results {
		if !sameResult(resumed.Results[i], ref.Results[i]) {
			t.Fatalf("resumed fleet run %d differs from uninterrupted", i)
		}
	}
	agg := resumed.Aggregates[core.V1]
	if agg.FleetRuns != spec.Total() || agg.FleetDrones != 3*spec.Total() {
		t.Errorf("resumed fleet counters lost: %+v", agg)
	}
}

// TestFleetCampaignShardMergeShuffled: slices of a fleet campaign flown
// independently from the lease wire format and merged in shuffled arrival
// order reproduce the uninterrupted campaign's aggregate digest.
func TestFleetCampaignShardMergeShuffled(t *testing.T) {
	spec := fleetSpec()
	ref, err := fleetRef()
	if err != nil {
		t.Fatal(err)
	}

	uploads := flySlices(t, spec, 3, Options{Workers: 2})
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		if got := mergeSlices(t, spec, uploads, order); got != ref.Digest() {
			t.Fatalf("shuffled merge %v digest %s != uninterrupted %s", order, got, ref.Digest())
		}
	}
}

// TestFleetSpecTravelsTheWireFormats pins the binding guarantees: the
// fleet spec is part of the Spec signature (journals refuse to resume a
// campaign whose fleet changed), it ships inside leases by value, and a
// nil or single-drone spec stays out of Timing's encoding entirely so
// pre-fleet journals still match their signatures.
func TestFleetSpecTravelsTheWireFormats(t *testing.T) {
	fleet := fleetSpec()
	solo := fleet
	solo.Timing.Fleet = nil

	sigF, err := fleet.Signature()
	if err != nil {
		t.Fatal(err)
	}
	sigS, err := solo.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if sigF == sigS {
		t.Fatal("spec signature ignores the fleet spec; journals could resume across fleet sizes")
	}

	// A different fleet is a different campaign too.
	other := fleet
	otherTiming := fleet.Timing
	otherTiming.Fleet = &scenario.FleetSpec{Size: 5, Spacing: 5}
	other.Timing = otherTiming
	sigO, err := other.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if sigO == sigF {
		t.Fatal("two different fleet specs share a signature")
	}

	// The spec survives the lease wire format (JSON round trip included).
	sub, _ := shipRuns(t, leaseRanges(t, fleet, 2)[1], fleet.Timing)
	if !sub.Timing.Fleet.Active() || sub.Timing.Fleet.Size != 3 || sub.Timing.Fleet.Spacing != 5 {
		t.Fatalf("lease wire format lost the fleet spec: %+v", sub.Timing)
	}

	// Journal binding: a journal for the fleet campaign refuses the solo
	// spec and vice versa.
	path := filepath.Join(t.TempDir(), "journal")
	j, err := OpenJournal(path, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, solo); err == nil {
		t.Fatal("fleet-campaign journal resumed with the fleet removed")
	}

	// Backward compatibility: a nil fleet stays out of the Timing encoding.
	enc, err := json.Marshal(solo.Timing)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "Fleet") {
		t.Fatalf("nil fleet spec leaks into the wire encoding: %s", enc)
	}

	// A single-drone (non-nil) fleet runs bit-identically to no fleet, so
	// it must sign identically too (Timing.Canonical normalizes it away) —
	// both in signatures and in leases.
	single := solo
	singleTiming := solo.Timing
	singleTiming.Fleet = &scenario.FleetSpec{Size: 1}
	single.Timing = singleTiming
	sig1, err := single.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if sig1 != sigS {
		t.Fatal("single-drone fleet spec signs differently from nil — journals would refuse an equivalent resume")
	}
	if sub, _ := shipRuns(t, leaseRanges(t, single, 2)[0], single.Timing); sub.Timing.Fleet != nil {
		t.Fatal("single-drone fleet spec not normalized out of the lease wire format")
	}
}
