package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
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
// even if every runner drifts the same way.
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
	fleet := SILTiming()
	fleet.Fleet = &FleetSpec{Size: 3}
	return []traceGoldenCase{
		{name: "inline", timing: SILTiming()},
		{name: "inline-sensor", timing: withPreset("sensor"), faulted: true},
		{name: "inline-blackout", timing: withPreset("blackout"), faulted: true},
		{name: "fast", timing: SILTiming().WithFast()},
		{name: "fleet3", timing: fleet.Canonical()},
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
	if c.faulted {
		faults := 0
		for _, ev := range events {
			if ev.Kind == "fault" {
				faults++
			}
		}
		if faults == 0 {
			t.Fatalf("%s: no fault edges recorded; the cell ends before the plan starts", c.name)
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
// against the committed golden file.
func TestTraceGoldenDigest(t *testing.T) {
	cases := traceGoldenCases(t)
	got := make(map[string]string, len(cases))
	var content strings.Builder
	for _, c := range cases {
		got[c.name] = traceGoldenDigest(t, c)
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
