package hil

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// Coverage for the platform model a hardware mission charges its work
// to — its per-second windows and its flight-recorder samples — plus the
// pipelined plan derivation.

// TestMonitorCadenceAccounting checks the per-window accrual on a real
// mission: a sample closes once a full second of link-up time has
// accrued, so samples are a second apart, and a comms blackout, which
// freezes the offboard stack, accrues nothing and closes no sample.
func TestMonitorCadenceAccounting(t *testing.T) {
	p := JetsonNanoMAXN()
	timing := DerivePlan(p, NanoCosts()).Timing
	const start, dur = 4.0, 3.0
	timing.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.CommsBlackout, Start: start, Duration: dur}}}
	_, samples := flyPlatform(t, Platform(p, NanoCosts()), timing, 2, 4)
	if len(samples) < 6 {
		t.Fatalf("%d samples, want a mission outliving the blackout", len(samples))
	}
	prev := 0.0
	for _, s := range samples {
		gap := s.T - prev
		inside := s.T > start+timing.Dt && s.T < start+dur
		switch {
		case inside:
			t.Errorf("sample at %.2fs inside the blackout [%v, %v)", s.T, start, start+dur)
		case prev < start && s.T > start+dur:
			// The window straddling the blackout accrues only link-up ticks.
			if gap < 1+dur-timing.Dt {
				t.Errorf("window across the blackout closed after %.2fs, want at least %.2fs", gap, 1+dur)
			}
		case gap < 1-1e-9 || gap > 1+timing.Dt+1e-9:
			t.Errorf("samples at %.2fs and %.2fs: a window is one second", prev, s.T)
		}
		prev = s.T
	}
}

// TestMonitorIsRecorder: the samples reach the flight recorder as
// "resource" events of the primary drone only — a fleet's wingmen are
// not modelled — in a trace that keeps the recorder's invariants.
func TestMonitorIsRecorder(t *testing.T) {
	p := JetsonNanoMAXN()
	timing := DerivePlan(p, NanoCosts()).Timing
	timing.Fleet = &scenario.FleetSpec{Size: 3}
	tr := obs.NewTrace(1 << 16)
	_, err := scenario.RunGridCell(core.V3, 1, 1, scenario.GridSeed(core.V3, 1, 1, 0), timing,
		func(_ *worldgen.Scenario, _ *core.System, cfg *scenario.RunConfig) {
			cfg.Platform, cfg.Recorder = Platform(p, NanoCosts()), tr
		})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range tr.Events() {
		if ev.Kind != "resource" {
			continue
		}
		if ev.Member != 0 {
			t.Fatalf("wingman %d recorded a resource sample", ev.Member)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no resource samples on the flight recorder")
	}
	var out strings.Builder
	if st, err := obs.CheckTrace(strings.NewReader(traceJSONL(t, tr)), obs.CheckOptions{Out: &out}); err != nil || st.Violations != 0 {
		t.Fatalf("trace with resource samples fails its invariants (%v): %s", err, out.String())
	}
}

// TestMonitorPeakAndMeans: a run's summary is its samples' mean CPU,
// mean memory and peak memory, bit for bit.
func TestMonitorPeakAndMeans(t *testing.T) {
	p := JetsonNanoMAXN()
	res, samples := flyPlatform(t, Platform(p, NanoCosts()), DerivePlan(p, NanoCosts()).Timing, 2, 4)
	var cpuSum, memSum, peak float64
	for _, s := range samples {
		cpuSum += s.Value
		memSum += s.MemMB
		peak = max(peak, s.MemMB)
	}
	n := float64(len(samples))
	want := scenario.Resources{MeanCPU: cpuSum / n, MeanMemMB: memSum / n, PeakMemMB: peak}
	if res.Resources == nil || *res.Resources != want {
		t.Fatalf("summary %+v, want the samples' %+v", res.Resources, want)
	}
}

// traceJSONL renders a recorder's events as a bare JSONL stream.
func traceJSONL(t *testing.T, tr *obs.Trace) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range tr.Events() {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPerceptionStageTicks checks the emergent-latency derivation: slower
// clocks stretch k, the desktop stays near-instant, and the control
// period quantizes it.
func TestPerceptionStageTicks(t *testing.T) {
	sil := scenario.SILTiming()
	nano := PerceptionStageTicks(JetsonNanoMAXN(), NanoCosts(), sil)
	fiveW := PerceptionStageTicks(JetsonNano5W(), NanoCosts(), sil)
	desk := PerceptionStageTicks(DesktopSIL(), NanoCosts(), sil)

	// Nano MAXN: (380+130)ms / 0.82 ≈ 622ms of stage per batch → 13 ticks
	// of 50ms. The exact value is pinned: it feeds recorded tables.
	if nano != 13 {
		t.Fatalf("Nano MAXN k = %d, want 13", nano)
	}
	if fiveW != 20 {
		t.Fatalf("5W mode k = %d, want 20", fiveW)
	}
	// Desktop: (380+130)ms * (1.43/3.6) / 0.92 ≈ 220ms → 5 ticks.
	if desk != 5 {
		t.Fatalf("desktop k = %d, want 5", desk)
	}

	// Zero-value timing falls back to SIL quantization.
	if got := PerceptionStageTicks(JetsonNanoMAXN(), NanoCosts(), scenario.Timing{}); got != nano {
		t.Fatalf("zero timing k = %d, want %d", got, nano)
	}
}

// TestDerivePipelinedPlan checks the pipelined plan keeps DerivePlan's
// cadence stretching but re-expresses the sense-to-act latency as
// emergent pipeline delivery.
func TestDerivePipelinedPlan(t *testing.T) {
	p := JetsonNanoMAXN()
	costs := NanoCosts()
	base := DerivePlan(p, costs)
	piped := DerivePipelinedPlan(p, costs)

	if piped.Timing.Pipeline != scenario.PipelineOn {
		t.Fatal("pipelined plan left the pipeline off")
	}
	if piped.Timing.PipelineLatencyTicks != PerceptionStageTicks(p, costs, base.Timing) {
		t.Fatalf("pipelined k = %d, want the derived stage cost", piped.Timing.PipelineLatencyTicks)
	}
	if piped.Timing.CommandLatencyTicks != 1 {
		t.Fatalf("pipelined actuation latency = %d ticks, want 1 (transport only)", piped.Timing.CommandLatencyTicks)
	}
	// The cadence stretching and saturation diagnosis are unchanged.
	if piped.Timing.DetectPeriod != base.Timing.DetectPeriod ||
		piped.ReplanInterval != base.ReplanInterval ||
		piped.CPUDemand != base.CPUDemand {
		t.Fatalf("pipelined plan perturbed the cadence model:\nbase:  %+v\npiped: %+v", base, piped)
	}
	// The emergent latency must carry at least the stretch the synthetic
	// model injected — the pipeline explains the delay, it does not erase it.
	if piped.Timing.PipelineLatencyTicks < base.Timing.CommandLatencyTicks {
		t.Fatalf("emergent latency %d ticks < injected %d: the stage model lost latency",
			piped.Timing.PipelineLatencyTicks, base.Timing.CommandLatencyTicks)
	}
}
