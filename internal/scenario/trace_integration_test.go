package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

// traceCell runs one grid cell with a flight recorder attached and
// returns the recorded events.
func traceCell(t *testing.T, timing Timing) []obs.Event {
	t.Helper()
	tr := obs.NewTrace(1 << 16)
	_, err := RunGridCell(core.V3, 2, 4, 42, timing,
		func(sc *worldgen.Scenario, sys *core.System, cfg *RunConfig) { cfg.Recorder = tr })
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; raise the test capacity", tr.Dropped())
	}
	return tr.Events()
}

// TestTraceInlineVsPipelinedK0 pins the flight recorder's cross-runner
// contract: the pipelined runner at delivery latency 0 is bit-identical
// to the inline runner (the engines already share golden digests), and
// the trace must agree event for event — captures at the same ticks,
// applies with the same payloads, the same fault and degraded windows —
// nominally and under every fault preset (trimmed under -short).
func TestTraceInlineVsPipelinedK0(t *testing.T) {
	for _, p := range oraclePlans(t) {
		inline := SILTiming()
		inline.Faults = p.plan
		piped := inline
		piped.Pipeline = PipelineOn
		piped.PipelineLatencyTicks = 0

		evInline := traceCell(t, inline)
		evPiped := traceCell(t, piped)
		if len(evInline) == 0 {
			t.Fatalf("%s: inline trace is empty", p.name)
		}
		if reflect.DeepEqual(evInline, evPiped) {
			continue
		}
		n := len(evInline)
		if len(evPiped) < n {
			n = len(evPiped)
		}
		for i := 0; i < n; i++ {
			if evInline[i] != evPiped[i] {
				t.Fatalf("%s: traces diverge at event %d: inline %+v, pipelined %+v", p.name, i, evInline[i], evPiped[i])
			}
		}
		t.Fatalf("%s: trace lengths differ: inline %d, pipelined-k0 %d", p.name, len(evInline), len(evPiped))
	}
}

// TestTraceFleetMemberTagging pins the fleet recorder contract: one
// shared recorder receives every member's events tagged by index, the
// stream passes the per-member ordering invariants, and member 0 carries
// the omitempty zero (so a solo trace and a fleet primary look alike).
func TestTraceFleetMemberTagging(t *testing.T) {
	timing := SILTiming()
	timing.Fleet = &FleetSpec{Size: 3}
	timing = timing.Canonical()

	tr := obs.NewTrace(1 << 17)
	if _, err := RunGridCell(core.V3, 2, 4, 42, timing,
		func(sc *worldgen.Scenario, sys *core.System, cfg *RunConfig) { cfg.Recorder = tr }); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	members := map[int]int{}
	ends := 0
	for _, ev := range events {
		members[ev.Member]++
		if ev.Kind == "end" {
			ends++
		}
	}
	for m := 0; m < 3; m++ {
		if members[m] == 0 {
			t.Fatalf("no events tagged for member %d (by-member counts: %v)", m, members)
		}
	}
	if ends != 3 {
		t.Fatalf("want one end event per member, got %d", ends)
	}

	// The stream must pass the checker's per-member invariants.
	var buf bytes.Buffer
	if err := obs.WriteRunTrace(&buf, obs.RunHeader{Gen: "MLS-V3", Map: 2, Sc: 4, Seed: 42},
		events, tr.Dropped()); err != nil {
		t.Fatal(err)
	}
	st, err := obs.CheckTrace(&buf, obs.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("fleet trace violates ordering invariants: %d violations", st.Violations)
	}
}
