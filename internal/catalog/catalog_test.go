package catalog

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/hil"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/vision"
	"repro/internal/worldgen"
)

// Signature golden: each named campaign's Spec.Signature, Total and lease
// profile under every flag variant the tools accept, on a multi-cell
// grid. A signature binds checkpoint journals, shard files and leases to
// their campaign, so a drift here means one of them would stop matching
// the campaign it was written for. The committed values were recorded
// from the per-tool spec construction this package replaced and equal
// the bench tools' -checkpoint headers.
//
// Regenerate (after an intentional change to a campaign, never to paper
// over a diff you can't explain):
//
//	GOLDEN_UPDATE=1 go test ./internal/catalog -run TestSignatureGolden

const signatureGoldenPath = "testdata/signature_golden.txt"

// goldenGrid is -maps 2 -scenarios 3 -repeats 2 -systems 123 -runs 6.
var goldenGrid = Grid{Maps: 2, Scenarios: 3, Repeats: 2, Systems: "123", Runs: 6}

type variant struct {
	label   string
	knobs   Knobs
	silOnly bool
}

// goldenVariants are the flag variants, with -pipeline-lag at its
// command default of 1 unless the label sets it.
func goldenVariants(t *testing.T) []variant {
	t.Helper()
	gps, err := fault.ParsePlan("gps")
	if err != nil {
		t.Fatal(err)
	}
	fleet := func(s string) *scenario.FleetSpec {
		f, err := scenario.ParseFleet(s)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return []variant{
		{label: "nominal", knobs: Knobs{PipelineLag: 1}},
		{label: "-pipeline", knobs: Knobs{Pipeline: true, PipelineLag: 1}},
		{label: "-pipeline -pipeline-lag 3", knobs: Knobs{Pipeline: true, PipelineLag: 3}, silOnly: true},
		{label: "-fast", knobs: Knobs{Fast: true, PipelineLag: 1}},
		{label: "-pipeline -fast", knobs: Knobs{Pipeline: true, Fast: true, PipelineLag: 1}},
		{label: "-faults gps", knobs: Knobs{Faults: gps, PipelineLag: 1}},
		{label: "-fleet 3", knobs: Knobs{Fleet: fleet("3"), PipelineLag: 1}},
		{label: "-fleet 1", knobs: Knobs{Fleet: fleet("1"), PipelineLag: 1}},
	}
}

func TestSignatureGolden(t *testing.T) {
	var b strings.Builder
	nominal := map[string]string{}
	for _, name := range Names() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range goldenVariants(t) {
			if v.silOnly && c != SIL {
				continue
			}
			spec, err := c.Spec(goldenGrid, v.knobs)
			if err != nil {
				t.Fatalf("%s %s: %v", name, v.label, err)
			}
			sig, err := spec.Signature()
			if err != nil {
				t.Fatal(err)
			}
			switch v.label {
			case "nominal":
				nominal[name] = sig
			case "-fleet 1":
				if sig != nominal[name] {
					t.Errorf("%s: -fleet 1 signs %.12s…, nominal %.12s…", name, sig, nominal[name])
				}
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\t%d\t%q\n", name, v.label, sig, spec.Total(), c.Profile())
		}
	}
	got := b.String()

	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.WriteFile(signatureGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated:\n%s", got)
		return
	}
	raw, err := os.ReadFile(signatureGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (%v) — generate with GOLDEN_UPDATE=1", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	have := strings.Split(strings.TrimSpace(got), "\n")
	if len(have) != len(want) {
		t.Fatalf("%d campaign variants, golden has %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("drifted from golden\n got: %s\nwant: %s", have[i], want[i])
		}
	}
}

// TestSpecRejects covers the argument errors a command turns into exit 2.
func TestSpecRejects(t *testing.T) {
	for _, c := range []struct {
		campaign *Campaign
		grid     Grid
	}{
		{SIL, Grid{Maps: 0, Scenarios: 1, Repeats: 1, Systems: "1"}},
		{SIL, Grid{Maps: 11, Scenarios: 1, Repeats: 1, Systems: "1"}},
		{SIL, Grid{Maps: 1, Scenarios: 11, Repeats: 1, Systems: "1"}},
		{SIL, Grid{Maps: 1, Scenarios: 1, Repeats: 1, Systems: "x"}},
		{SIL, Grid{Maps: 1, Scenarios: 1, Repeats: 0, Systems: "1"}},
		{SIL, Grid{Maps: 1, Scenarios: 1, Repeats: -2, Systems: "1"}},
		{HILMAXN, Grid{Maps: 1, Scenarios: 0, Repeats: 1}},
		{HILMAXN, Grid{Maps: 1, Scenarios: 1, Repeats: 0}},
		{Field, Grid{Runs: 0}},
	} {
		if _, err := c.campaign.Spec(c.grid, Knobs{}); err == nil {
			t.Errorf("%s %+v: accepted", c.campaign.Name, c.grid)
		}
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "sil, hil-maxn, hil-5w, field") {
		t.Errorf("Lookup(nope) = %v, want an error listing the catalog", err)
	}
}

func TestParseSystems(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []core.Generation // nil: rejected
	}{
		{"1,2,3", []core.Generation{core.V1, core.V2, core.V3}},
		{"123", []core.Generation{core.V1, core.V2, core.V3}},
		{"3,1", []core.Generation{core.V3, core.V1}},
		{"2", []core.Generation{core.V2}},
		{"13,", []core.Generation{core.V1, core.V3}},
		{"", nil},
		{",", nil},
		{"11", nil},
		{"1,3,1", nil},
		{"4", nil},
		{"0", nil},
		{"1;3", nil},
		{"1, 3", nil},
		{"v1", nil},
	} {
		got, err := parseSystems(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseSystems(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("parseSystems(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// TestProfileHooksConfigure executes each campaign's hook, resolved the
// way a worker resolves a lease's profile, against a real system: the
// hardware tiers must apply their platform's cadences and cost model,
// field its weather floors and spurious-depth rate, and sil must need no
// hook at all.
func TestProfileHooksConfigure(t *testing.T) {
	dict := vision.DefaultDictionary()
	for _, c := range all {
		hook, err := Hook(c.Profile())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if (hook == nil) != (c == SIL) {
			t.Fatalf("%s: hook = %v", c.Name, hook)
		}
		if hook == nil {
			continue
		}
		sys, err := core.NewV3(7, geom.Vec3{}, dict, 1)
		if err != nil {
			t.Fatal(err)
		}
		sc := &worldgen.Scenario{}
		cfg := &scenario.RunConfig{}
		hook(campaign.Run{}, sc, sys, cfg)
		plan := c.Plan()
		if got := sys.Config(); got.ReplanInterval != plan.ReplanInterval || got.GuardInterval != plan.GuardInterval {
			t.Errorf("%s: replan/guard %v/%v, want %v/%v", c.Name,
				got.ReplanInterval, got.GuardInterval, plan.ReplanInterval, plan.GuardInterval)
		}
		floored := sc.Weather.GPSDegradation >= 0.5 && sc.Weather.GustStd >= 1.0 && cfg.ErroneousDepthRate == 0.04
		if floored != (c == Field) {
			t.Errorf("%s: weather %+v, erroneous depth rate %v", c.Name, sc.Weather, cfg.ErroneousDepthRate)
		}
		// Every run of a hardware tier charges its load to the tier's
		// platform, so its Result carries the resource summary.
		if want := hil.Platform(c.Platform, c.Costs); cfg.Platform == nil || *cfg.Platform != *want {
			t.Errorf("%s: platform %+v, want %+v", c.Name, cfg.Platform, want)
		}
	}
	if _, err := Hook("turbo"); err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Fatalf("unknown profile: err = %v", err)
	}
	if _, err := Hook("sil"); err == nil {
		t.Fatal(`profile "sil" resolved; sil leases carry ""`)
	}
}

// A recorder chained behind the campaign's hook, as -trace and the re-fly
// behind the fault timeline and Fig. 7 install one, monitors the run the
// hook configured without replacing any of it: the re-flown field flight
// digests as the hook-only flight (the field degradations and cadences
// stay), and the recorder holds the load samples of the platform the hook
// set, the very samples the flight's Result.Resources summarizes.
func TestMonitorChainsBehindHook(t *testing.T) {
	spec, err := Field.Spec(Grid{Runs: 2}, Knobs{})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := spec.Runs()
	if err != nil {
		t.Fatal(err)
	}
	ru := runs[1]
	r, err := scenario.RunGridCell(ru.Gen, ru.MapIdx, ru.ScenarioIdx, ru.Seed, spec.Timing,
		func(sc *worldgen.Scenario, sys *core.System, cfg *scenario.RunConfig) {
			spec.Configure(ru, sc, sys, cfg)
			if cfg.Recorder != nil || cfg.ErroneousDepthRate != 0.04 || cfg.Platform == nil {
				t.Errorf("field hook: recorder %v, erroneous depth rate %v, platform %v",
					cfg.Recorder, cfg.ErroneousDepthRate, cfg.Platform)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if r.Resources == nil {
		t.Fatal("field flight carries no resource summary")
	}

	tr := obs.NewTrace(1 << 16)
	if _, err := campaign.Refly(spec, 1, r.Digest(), tr); err != nil {
		t.Fatalf("recorder behind the hook changed the flight: %v", err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped())
	}
	var n int
	var cpu, mem, peak float64
	for _, ev := range tr.Events() {
		if ev.Kind != "resource" {
			continue
		}
		n++
		cpu += ev.Value
		mem += ev.MemMB
		peak = max(peak, ev.MemMB)
	}
	if n == 0 {
		t.Fatal("recorder behind the hook saw no resource sample")
	}
	got := scenario.Resources{MeanCPU: cpu / float64(n), MeanMemMB: mem / float64(n), PeakMemMB: peak}
	if got != *r.Resources {
		t.Fatalf("%d recorded samples summarize to %+v, the flight's Result carries %+v", n, got, *r.Resources)
	}
}
