package hil

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

func TestDesktopRunsNative(t *testing.T) {
	plan := DerivePlan(DesktopSIL(), NanoCosts())
	sil := scenario.SILTiming()
	if plan.Timing.DetectPeriod != sil.DetectPeriod {
		t.Errorf("desktop stretched detection: %v", plan.Timing.DetectPeriod)
	}
	if plan.CPUDemand > 0.5 {
		t.Errorf("desktop demand %v unexpectedly high", plan.CPUDemand)
	}
}

func TestNanoSaturates(t *testing.T) {
	plan := DerivePlan(JetsonNanoMAXN(), NanoCosts())
	sil := scenario.SILTiming()
	if plan.CPUDemand < 0.75 {
		t.Fatalf("nano demand %v, expected near saturation", plan.CPUDemand)
	}
	if plan.Timing.DetectPeriod <= sil.DetectPeriod {
		t.Error("nano did not stretch detection cadence")
	}
	if plan.ReplanInterval <= 0.6 {
		t.Error("nano did not stretch replanning — the Table III mechanism")
	}
	if plan.Timing.CommandLatencyTicks < 1 {
		t.Error("nano has no sense-act latency")
	}
}

func TestFiveWattWorseThanMAXN(t *testing.T) {
	maxn := DerivePlan(JetsonNanoMAXN(), NanoCosts())
	low := DerivePlan(JetsonNano5W(), NanoCosts())
	if low.Timing.DetectPeriod <= maxn.Timing.DetectPeriod {
		t.Error("5W mode should stretch detection more than MAXN")
	}
	if low.ReplanInterval <= maxn.ReplanInterval {
		t.Error("5W mode should stretch replanning more than MAXN")
	}
}

func TestFieldCostsExceedHIL(t *testing.T) {
	hil := DerivePlan(JetsonNanoMAXN(), NanoCosts())
	field := DerivePlan(JetsonNanoMAXN(), FieldCosts())
	if field.CPUDemand <= hil.CPUDemand {
		t.Error("field profile should demand more CPU (camera feed)")
	}
}

func TestMemoryModel(t *testing.T) {
	p := JetsonNanoMAXN()
	hil, field := Platform(p, NanoCosts()), Platform(p, FieldCosts())
	base := hil.MemBaseMB + hil.MemBufferMB
	if base < 1500 || base > 2900 {
		t.Errorf("base memory %v MB implausible", base)
	}
	if field.MemBaseMB+field.MemBufferMB <= base {
		t.Error("field profile should use more memory (camera buffers)")
	}
	// The live map adds its footprint on top: a mission's memory samples
	// sit at or above the base, and grow with the map.
	_, samples := flyPlatform(t, hil, DerivePlan(p, NanoCosts()).Timing, 2, 4)
	for _, s := range samples {
		if s.MemMB < base || s.MemMB > base+50 {
			t.Fatalf("memory sample %v MB outside [%v, %v]", s.MemMB, base, base+50)
		}
	}
	if last := samples[len(samples)-1]; last.MemMB <= base {
		t.Errorf("map memory not accounted: last sample %v MB, base %v MB", last.MemMB, base)
	}
}

// flyPlatform flies MLS-V3 on map mi, scenario si under timing with the
// platform model and a flight recorder, and returns the run and its
// resource samples.
func flyPlatform(t *testing.T, p *scenario.Platform, timing scenario.Timing, mi, si int) (scenario.Result, []obs.Event) {
	t.Helper()
	tr := obs.NewTrace(1 << 16)
	res, err := scenario.RunGridCell(core.V3, mi, si, scenario.GridSeed(core.V3, mi, si, 0), timing,
		func(_ *worldgen.Scenario, _ *core.System, cfg *scenario.RunConfig) {
			cfg.Platform, cfg.Recorder = p, tr
		})
	if err != nil {
		t.Fatal(err)
	}
	var samples []obs.Event
	for _, ev := range tr.Events() {
		if ev.Kind == "resource" {
			samples = append(samples, ev)
		}
	}
	return res, samples
}

// TestMonitorSeries: a HIL mission charged to the Nano MAXN samples its
// load once per second of mission, each sample inside the board's range.
func TestMonitorSeries(t *testing.T) {
	p := JetsonNanoMAXN()
	res, samples := flyPlatform(t, Platform(p, NanoCosts()), DerivePlan(p, NanoCosts()).Timing, 2, 4)
	if n, secs := len(samples), int(res.Duration); n < secs-1 || n > secs {
		t.Fatalf("%d samples over a %.1fs mission, want one a second", n, res.Duration)
	}
	for _, s := range samples {
		if s.Value <= 0 || s.Value > 400 {
			t.Errorf("cpu %v out of range", s.Value)
		}
		if s.MemMB < 1000 || s.MemMB > 2900 {
			t.Errorf("memory %v MB", s.MemMB)
		}
	}
	if r := res.Resources; r == nil || r.MeanCPU <= 0 || r.MeanMemMB <= 0 || r.PeakMemMB <= 0 {
		t.Errorf("summary %+v", res.Resources)
	}
}

// TestMonitorSaturatesAllCoresUnderLoad: the full stack at SIL-native
// rates overloads the Nano — the paper's "all four CPU cores heavily
// utilised" — and the waterfill caps each core at 100%.
func TestMonitorSaturatesAllCoresUnderLoad(t *testing.T) {
	_, samples := flyPlatform(t, Platform(JetsonNanoMAXN(), NanoCosts()), scenario.SILTiming(), 2, 4)
	heavy := 0
	for _, s := range samples {
		if s.Value > 400 {
			t.Fatalf("cpu %v%% above four saturated cores", s.Value)
		}
		if s.Value >= 4*80 {
			heavy++
		}
	}
	if heavy < len(samples)/2 {
		t.Errorf("%d of %d seconds with every core at 80%% or more, want most", heavy, len(samples))
	}
}

// TestMeanEmptyMonitor: a mission whose link is down from the first tick
// never steps the stack, closes no sample, and summarizes as zeros —
// still a summary, so the run counts in the pooled figures.
func TestMeanEmptyMonitor(t *testing.T) {
	timing := scenario.SILTiming()
	timing.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.CommsBlackout, Start: 0, Duration: 400}}}
	res, samples := flyPlatform(t, Platform(JetsonNanoMAXN(), NanoCosts()), timing, 2, 4)
	if len(samples) != 0 {
		t.Fatalf("%d samples from a mission that never stepped its stack", len(samples))
	}
	if r := res.Resources; r == nil || *r != (scenario.Resources{}) {
		t.Errorf("summary %+v, want zeros", res.Resources)
	}
}
