package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/worldgen"
)

// Trace golden: the flight recorder's bytes for fixed-seed runs of one
// cell, committed as sha256 digests of the obs.WriteRunTrace output in
// testdata/trace_golden_digest.txt. TestTraceInlineVsPipelinedK0 compares
// two runners within one commit; this test pins the bytes across commits,
// so a runner rewrite that reorders, adds or drops an event fails here
// even if every runner drifts the same way. Fleet cases fly at GOMAXPROCS
// 1 and 4 and must hash the same both times: how many cores a fleet's
// members tick on must not show in its trace.
//
// Regenerate (after an *intentional* change to what the recorder emits,
// never to paper over a diff you can't explain):
//
//	GOLDEN_UPDATE=1 go test ./internal/scenario -run TestTraceGoldenDigest

const traceGoldenPath = "testdata/trace_golden_digest.txt"

// traceGoldenCell is the cell every golden trace flies.
const (
	traceGoldenMap  = 2
	traceGoldenSc   = 4
	traceGoldenSeed = 42
)

// traceGoldenCase is one pinned trace: a name and the timing it flies.
type traceGoldenCase struct {
	name   string
	timing Timing
	// faulted cases must record at least one fault edge, or the cell
	// ended before the plan's first window and the case pins nothing.
	faulted bool
}

func traceGoldenCases(t *testing.T) []traceGoldenCase {
	t.Helper()
	withPreset := func(name string) Timing {
		plan, err := fault.ParsePlan(name)
		if err != nil {
			t.Fatal(err)
		}
		timing := SILTiming()
		timing.Faults = plan
		return timing
	}
	fleet := func(base Timing, spec FleetSpec) Timing {
		base.Fleet = &spec
		return base.Canonical()
	}
	return []traceGoldenCase{
		{name: "inline", timing: SILTiming()},
		{name: "inline-sensor", timing: withPreset("sensor"), faulted: true},
		{name: "inline-blackout", timing: withPreset("blackout"), faulted: true},
		{name: "fast", timing: SILTiming().WithFast()},
		{name: "fleet3", timing: fleet(SILTiming(), FleetSpec{Size: 3})},
		{name: "fleet8-dense", timing: fleet(SILTiming(), FleetSpec{Size: 8, Spacing: 3})},
		{name: "fleet4-sensor", timing: fleet(withPreset("sensor"), FleetSpec{Size: 4}), faulted: true},
	}
}

// traceGoldenDigest flies one case and hashes its trace block.
func traceGoldenDigest(t *testing.T, c traceGoldenCase) string {
	t.Helper()
	tr := obs.NewTrace(1 << 17)
	_, err := RunGridCell(core.V3, traceGoldenMap, traceGoldenSc, traceGoldenSeed, c.timing,
		func(sc *worldgen.Scenario, sys *core.System, cfg *RunConfig) { cfg.Recorder = tr })
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("%s: trace ring dropped %d events; raise the test capacity", c.name, tr.Dropped())
	}
	events := tr.Events()
	faults, separations := 0, 0
	endTicks := map[int]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case "fault":
			faults++
		case "separation":
			separations++
		case "end":
			endTicks[ev.Tick] = true
		}
	}
	if c.faulted && faults == 0 {
		t.Fatalf("%s: no fault edges recorded; the cell ends before the plan starts", c.name)
	}
	if c.timing.Fleet != nil {
		// A fleet case pins the lockstep hand-off only if pairs close in
		// and members retire at different ticks while the rest fly on.
		if separations == 0 {
			t.Fatalf("%s: no separation events recorded; the fleet never closes in", c.name)
		}
		if len(endTicks) < 2 {
			t.Fatalf("%s: every member ended at one tick; no staggered teardown is pinned", c.name)
		}
	}
	var buf bytes.Buffer
	hdr := obs.RunHeader{Gen: core.V3.String(), Map: traceGoldenMap, Sc: traceGoldenSc, Seed: traceGoldenSeed}
	if err := obs.WriteRunTrace(&buf, hdr, events, tr.Dropped()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestTraceGoldenDigest flies every case and compares its trace digest
// against the committed golden file; fleet cases fly once per GOMAXPROCS
// setting and must agree before either is compared.
func TestTraceGoldenDigest(t *testing.T) {
	cases := traceGoldenCases(t)
	got := make(map[string]string, len(cases))
	var content strings.Builder
	for _, c := range cases {
		if c.timing.Fleet == nil {
			got[c.name] = traceGoldenDigest(t, c)
		} else {
			got[c.name] = fleetGoldenDigest(t, c)
		}
		fmt.Fprintf(&content, "%s %s\n", c.name, got[c.name])
	}

	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(traceGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenPath, []byte(content.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("trace golden file updated:\n%s", content.String())
		return
	}

	raw, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatalf("trace golden file missing (%v) — generate with GOLDEN_UPDATE=1", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("trace golden file: malformed line %q", line)
		}
		want[name] = digest
	}
	if len(want) != len(cases) {
		t.Fatalf("trace golden file pins %d cases, the test flies %d", len(want), len(cases))
	}
	for _, c := range cases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: trace digest %s, golden %s", c.name, got[c.name], want[c.name])
		}
	}
}

// fleetGoldenDigest flies a fleet case at GOMAXPROCS 1 and 4 and returns
// the digest both flights share.
func fleetGoldenDigest(t *testing.T, c traceGoldenCase) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var digest string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		d := traceGoldenDigest(t, c)
		if digest != "" && d != digest {
			t.Fatalf("%s: trace digest %s at GOMAXPROCS %d, %s at 1", c.name, d, procs, digest)
		}
		digest = d
	}
	return digest
}
