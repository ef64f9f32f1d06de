package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
)

// faultSpec is a small mixed grid flown under an active fault plan: the
// dependability analogue of testSpec. V1 keeps it cheap enough for -short.
func faultSpec() Spec {
	timing := scenario.SILTiming()
	timing.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.GPSDrift, Start: 5, Duration: 15, Magnitude: 0.4},
		{Kind: fault.DepthDropout, Start: 8, Duration: 10, Probability: 0.7},
		{Kind: fault.WindGust, Start: 10, Duration: 20, Magnitude: 1.5},
		{Kind: fault.CommsBlackout, Start: 25, Duration: 3},
	}}
	return Spec{
		Maps:        []int{0, 1},
		Scenarios:   []int{0, 5},
		Repeats:     1,
		Generations: []core.Generation{core.V1},
		Timing:      timing,
	}
}

// TestFaultCampaignDeterministicAcrossWorkers: a fixed (seed, Plan) fault
// campaign is bit-identical at any worker count, results and aggregates.
func TestFaultCampaignDeterministicAcrossWorkers(t *testing.T) {
	spec := faultSpec()
	var digest string
	var results []scenario.Result
	for _, workers := range []int{1, 4} {
		rep, err := Execute(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if digest == "" {
			digest = rep.Digest()
			results = rep.Results
			agg := rep.Aggregates[core.V1]
			if agg.FaultRuns != spec.Total() {
				t.Errorf("FaultRuns = %d, want %d (every run flies the plan)", agg.FaultRuns, spec.Total())
			}
			if agg.DegradedTicks == 0 {
				t.Error("campaign recorded no degraded ticks")
			}
			continue
		}
		if got := rep.Digest(); got != digest {
			t.Fatalf("fault campaign digest depends on worker count: %s vs %s", digest, got)
		}
		for i := range results {
			if !sameResult(rep.Results[i], results[i]) {
				t.Fatalf("fault run %d differs across worker counts", i)
			}
		}
	}
}

// TestFaultCampaignResumeAfterCancel: cancel a checkpointed fault campaign
// partway, resume it, and require the resumed report to be bit-identical
// to an uninterrupted run — dependability metrics included.
func TestFaultCampaignResumeAfterCancel(t *testing.T) {
	spec := faultSpec()
	ref, err := Execute(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fault.ckpt")
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
		t.Fatalf("resumed fault campaign digest %s != uninterrupted %s", resumed.Digest(), ref.Digest())
	}
	for i := range ref.Results {
		if !sameResult(resumed.Results[i], ref.Results[i]) {
			t.Fatalf("resumed fault run %d differs from uninterrupted", i)
		}
	}
	agg := resumed.Aggregates[core.V1]
	if agg.FaultRuns != spec.Total() || agg.DegradedTicks == 0 {
		t.Errorf("resumed fault counters lost: %+v", agg)
	}
}

// TestFaultCampaignShardMergeShuffled: slices of a fault campaign flown
// independently from the lease wire format and merged in shuffled arrival
// order reproduce the uninterrupted campaign's aggregate digest.
func TestFaultCampaignShardMergeShuffled(t *testing.T) {
	spec := faultSpec()
	ref, err := Execute(context.Background(), spec, Options{})
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

// TestFaultPlanTravelsTheWireFormats pins the binding guarantees: the
// fault plan is part of the Spec signature (journals refuse to resume a
// campaign whose plan changed), it ships inside leases by value, and a
// nil plan stays out of Timing's encoding entirely so pre-fault journals
// and result files still match their signatures.
func TestFaultPlanTravelsTheWireFormats(t *testing.T) {
	faulted := faultSpec()
	nominal := faulted
	nominal.Timing.Faults = nil

	sigF, err := faulted.Signature()
	if err != nil {
		t.Fatal(err)
	}
	sigN, err := nominal.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if sigF == sigN {
		t.Fatal("spec signature ignores the fault plan; journals could resume across plans")
	}

	// A different plan is a different campaign too.
	other := faulted
	otherTiming := faulted.Timing
	otherTiming.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.GPSDrift, Start: 1}}}
	other.Timing = otherTiming
	sigO, err := other.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if sigO == sigF {
		t.Fatal("two different fault plans share a signature")
	}

	// The plan survives the lease wire format (JSON round trip included).
	sub, _ := shipRuns(t, leaseRanges(t, faulted, 2)[1], faulted.Timing)
	if !sub.Timing.Faults.Active() || len(sub.Timing.Faults.Faults) != len(faulted.Timing.Faults.Faults) {
		t.Fatalf("lease wire format lost the fault plan: %+v", sub.Timing)
	}

	// Journal binding: a journal for the faulted campaign refuses the
	// nominal spec and vice versa.
	path := filepath.Join(t.TempDir(), "journal")
	j, err := OpenJournal(path, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, nominal); err == nil {
		t.Fatal("fault-campaign journal resumed with the plan removed")
	}

	// Backward compatibility: a nil plan stays out of the Timing encoding.
	enc, err := json.Marshal(nominal.Timing)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "Faults") {
		t.Fatalf("nil fault plan leaks into the wire encoding: %s", enc)
	}

	// An empty non-nil plan runs bit-identically to a nil one, so it must
	// sign identically too (Timing.Canonical normalizes it away) — both
	// in signatures and in leases.
	emptied := nominal
	emptiedTiming := nominal.Timing
	emptiedTiming.Faults = &fault.Plan{}
	emptied.Timing = emptiedTiming
	sigE, err := emptied.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if sigE != sigN {
		t.Fatal("empty (non-nil) fault plan signs differently from nil — journals would refuse an equivalent resume")
	}
	if sub, _ := shipRuns(t, leaseRanges(t, emptied, 2)[0], emptied.Timing); sub.Timing.Faults != nil {
		t.Fatal("empty fault plan not normalized out of the lease wire format")
	}
}
