package hil

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// Coverage for the monitor's cadence accounting and its event-derived
// stage-timing counters, plus the pipelined plan derivation — the pieces
// the pipelined runner reports through.

// TestMonitorCadenceAccounting checks the per-window work accrual: no
// sample before a full second of Advance, one sample after, and the
// accumulators reset between windows.
func TestMonitorCadenceAccounting(t *testing.T) {
	m := NewMonitor(JetsonNanoMAXN(), NanoCosts())

	// Half a window: work accrues, nothing emitted.
	m.RecordDetect()
	m.RecordControl()
	m.Advance(0.5, 0.5, 0)
	if len(m.Samples()) != 0 {
		t.Fatalf("sample emitted before the 1s window closed")
	}

	// Window closes: exactly one sample, reflecting the recorded work.
	m.RecordDepth()
	m.Advance(0.5, 1.0, 2_000_000)
	s := m.Samples()
	if len(s) != 1 {
		t.Fatalf("got %d samples, want 1", len(s))
	}
	if s[0].CPUPercent <= 0 || s[0].MemMB <= 0 {
		t.Fatalf("degenerate sample: %+v", s[0])
	}

	// Next window has no recorded work: only the per-second feed load
	// remains, so utilization must drop strictly.
	m.Advance(1.0, 2.0, 2_000_000)
	s = m.Samples()
	if len(s) != 2 {
		t.Fatalf("got %d samples, want 2", len(s))
	}
	if s[1].CPUPercent >= s[0].CPUPercent {
		t.Fatalf("accumulators did not reset: %.1f%% then %.1f%%", s[0].CPUPercent, s[1].CPUPercent)
	}
}

// TestMonitorStageCounters exercises the apply-event stage counters
// across mixed batches; wingmen and other kinds are not counted.
func TestMonitorStageCounters(t *testing.T) {
	m := NewMonitor(JetsonNanoMAXN(), NanoCosts())
	if b, de, dp, mean, max := m.StageStats(); b != 0 || de != 0 || dp != 0 || mean != 0 || max != 0 {
		t.Fatal("fresh monitor reports stage activity")
	}

	m.Record(obs.Event{Kind: "apply", Detail: "depth+frame", Value: 13})
	m.Record(obs.Event{Kind: "apply", Detail: "frame", Value: 13})
	m.Record(obs.Event{Kind: "apply", Detail: "depth", Value: 10})
	m.Record(obs.Event{Kind: "apply", Detail: "none", Value: 12})
	m.Record(obs.Event{Kind: "apply", Detail: "depth+frame", Value: 40, Member: 1})
	m.Record(obs.Event{Kind: "capture", Detail: "depth+frame"})

	b, de, dp, mean, max := m.StageStats()
	if b != 4 || de != 2 || dp != 2 {
		t.Fatalf("counters: batches=%d detects=%d depths=%d, want 4/2/2", b, de, dp)
	}
	if want := 12.0; mean != want {
		t.Fatalf("mean delay %.2f, want %.2f", mean, want)
	}
	if max != 13 {
		t.Fatalf("max delay %d, want 13", max)
	}
}

// TestMonitorIsRecorder attaches a monitor to a real pipelined, faulted
// mission as its flight recorder: the stage counters and the fault
// timeline must come out of the mission's own events.
func TestMonitorIsRecorder(t *testing.T) {
	const k = 3
	timing := scenario.SILTiming()
	timing.Pipeline = scenario.PipelineOn
	timing.PipelineLatencyTicks = k
	timing.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: fault.DepthDropout, Start: 2, Duration: 3}}}
	mon := NewMonitor(DesktopSIL(), NanoCosts())
	_, err := scenario.RunGridCell(core.V1, 1, 0, scenario.GridSeed(core.V1, 1, 0, 0), timing,
		func(_ *worldgen.Scenario, _ *core.System, cfg *scenario.RunConfig) {
			cfg.Observer, cfg.Recorder = mon, mon
		})
	if err != nil {
		t.Fatal(err)
	}
	b, de, dp, mean, max := mon.StageStats()
	if b == 0 || de == 0 || dp == 0 {
		t.Fatalf("stage counters empty: batches=%d detects=%d depths=%d", b, de, dp)
	}
	if mean != k || max != k {
		t.Fatalf("delivery delay mean %.2f max %d, want %d", mean, max, k)
	}
	evs := mon.FaultEvents()
	if len(evs) != 2 || evs[0].Phase != obs.PhaseEnter || evs[1].Phase != obs.PhaseExit ||
		evs[0].Detail != string(fault.DepthDropout) {
		t.Fatalf("fault timeline %+v, want one depth-dropout enter/exit pair", evs)
	}
	if len(mon.Samples()) == 0 {
		t.Fatal("no resource samples: the monitor lost its observer half")
	}
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

// TestMonitorPeakAndMeans covers the summary accessors over a known
// series.
func TestMonitorPeakAndMeans(t *testing.T) {
	m := NewMonitor(JetsonNanoMAXN(), NanoCosts())
	for i := 0; i < 3; i++ {
		if i == 1 { // one loaded window
			for j := 0; j < 4; j++ {
				m.RecordDetect()
				m.RecordPlan()
			}
		}
		m.Advance(1.0, float64(i+1), 1_000_000*(i+1))
	}
	cpu, mem := m.Peak()
	if cpu <= 0 || mem <= 0 {
		t.Fatalf("peak (%v, %v) not positive", cpu, mem)
	}
	if mean := m.MeanCPU(); mean <= 0 || mean > cpu || math.IsNaN(mean) {
		t.Fatalf("mean CPU %v out of range (peak %v)", mean, cpu)
	}
	if mean := m.MeanMemMB(); mean <= 0 || mean > mem {
		t.Fatalf("mean mem %v out of range (peak %v)", mean, mem)
	}
}

// TestMonitorFaultTimeline: the monitor keeps the member-0 fault events
// in mission order and nothing else.
func TestMonitorFaultTimeline(t *testing.T) {
	mon := NewMonitor(JetsonNanoMAXN(), NanoCosts())
	if len(mon.FaultEvents()) != 0 {
		t.Fatal("fresh monitor has fault events")
	}
	mon.Record(obs.Event{Tick: 200, T: 10, Kind: "fault", Detail: "wind-gust", Phase: obs.PhaseEnter})
	mon.Record(obs.Event{Tick: 200, T: 10, Kind: "degraded", Phase: obs.PhaseEnter})
	mon.Record(obs.Event{Tick: 210, T: 10.5, Kind: "fault", Detail: "gps-drift", Phase: obs.PhaseEnter, Member: 2})
	mon.Record(obs.Event{Tick: 280, T: 14, Kind: "fault", Detail: "wind-gust", Phase: obs.PhaseExit})
	evs := mon.FaultEvents()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Detail != "wind-gust" || evs[0].Phase != obs.PhaseEnter || evs[0].T != 10 {
		t.Errorf("first event %+v", evs[0])
	}
	if evs[1].Phase != obs.PhaseExit || evs[1].T != 14 {
		t.Errorf("second event %+v", evs[1])
	}
}
