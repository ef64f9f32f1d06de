package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/planning"
	"repro/internal/vision"
	"repro/internal/worldgen"
)

// runCell is a RunGridCell shorthand for the fault tests.
func runCell(t *testing.T, gen core.Generation, mi, si int, timing Timing) Result {
	t.Helper()
	r, err := RunGridCell(gen, mi, si, GridSeed(gen, mi, si, 0), timing, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestEmptyFaultPlanBitIdentical is the subsystem's first acceptance
// criterion: a nil plan and an empty (non-nil) plan must both reproduce
// the pre-fault engine bit for bit — same RNG streams, same operation
// order, same Result encoding.
func TestEmptyFaultPlanBitIdentical(t *testing.T) {
	cells := [][2]int{{0, 0}, {1, 5}}
	gens := []core.Generation{core.V1, core.V3}
	if testing.Short() {
		cells = cells[:1]
		gens = gens[:1]
	}
	for _, gen := range gens {
		for _, c := range cells {
			nominal := runCell(t, gen, c[0], c[1], SILTiming())

			empty := SILTiming()
			empty.Faults = &fault.Plan{}
			got := runCell(t, gen, c[0], c[1], empty)
			if !sameResult(nominal, got) {
				t.Fatalf("%v map%d sc%d: empty plan diverges from nominal:\nnominal: %+v\nempty:   %+v",
					gen, c[0], c[1], nominal, got)
			}
			if nominal.Digest() != got.Digest() {
				t.Fatalf("%v map%d sc%d: empty-plan result digest differs", gen, c[0], c[1])
			}
			if got.DegradedTicks != 0 || got.FaultInjections != 0 || got.Recovered ||
				got.RecoverySeconds != 0 || got.AbortCause != "" {
				t.Fatalf("empty plan populated fault metrics: %+v", got)
			}
		}
	}
}

// faultTestPlan exercises one window of every control-side fault family
// early enough that every benchmark mission is still airborne.
func faultTestPlan() *fault.Plan {
	return &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.GPSDrift, Start: 5, Duration: 10, Magnitude: 0.5},
		{Kind: fault.DepthDropout, Start: 6, Duration: 6},
		{Kind: fault.WindGust, Start: 8, Duration: 8, Magnitude: 2},
		{Kind: fault.CommandDropout, Start: 10, Duration: 5, Probability: 0.5},
		{Kind: fault.CommsBlackout, Start: 18, Duration: 2},
	}}
}

// TestFaultRunDeterministic: the same (seed, plan) reproduces itself bit
// for bit, and the fault metrics are populated.
func TestFaultRunDeterministic(t *testing.T) {
	timing := SILTiming()
	timing.Faults = faultTestPlan()
	a := runCell(t, core.V1, 0, 0, timing)
	b := runCell(t, core.V1, 0, 0, timing)
	if !sameResult(a, b) {
		t.Fatalf("fault run not reproducible:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if a.DegradedTicks == 0 {
		t.Error("no degraded ticks recorded under an active plan")
	}
	// The mission may land before the later windows open; at least the
	// early ones must have fired, and never more than the plan holds.
	if a.FaultInjections < 1 || a.FaultInjections > len(timing.Faults.Faults) {
		t.Errorf("FaultInjections = %d, want within [1, %d]", a.FaultInjections, len(timing.Faults.Faults))
	}
}

// TestFaultsPerturbTheRun: the plan must actually change the mission —
// and the injected GPS drift must surface in the drift metric.
func TestFaultsPerturbTheRun(t *testing.T) {
	nominal := runCell(t, core.V1, 0, 0, SILTiming())

	timing := SILTiming()
	timing.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.GPSDrift, Start: 5, Duration: 30, Magnitude: 0.8},
	}}
	faulted := runCell(t, core.V1, 0, 0, timing)
	if faulted.MaxGPSDrift <= nominal.MaxGPSDrift {
		t.Errorf("injected drift invisible: nominal max %.2f m, faulted %.2f m",
			nominal.MaxGPSDrift, faulted.MaxGPSDrift)
	}
	if faulted.DegradedTicks == 0 {
		t.Error("no degraded ticks")
	}
}

// TestDetectorMissSuppressesDetections: a certain miss window covering the
// whole mission means the decision layer never sees a detection, however
// many frames had the marker in view.
func TestDetectorMissSuppressesDetections(t *testing.T) {
	timing := SILTiming()
	timing.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.DetectorMiss, Start: 0.01}, // unbounded, probability 1
	}}
	r := runCell(t, core.V1, 0, 0, timing)
	if r.Stats.Detections != 0 {
		t.Errorf("certain detector-miss let %d detections through", r.Stats.Detections)
	}
	if r.MarkerDetectedFrames != 0 {
		t.Errorf("MarkerDetectedFrames = %d under a certain miss", r.MarkerDetectedFrames)
	}
	if r.Outcome == Success {
		t.Error("mission succeeded without a single detection")
	}
	if r.Recovered {
		t.Error("unbounded fault reported recovery")
	}
}

// TestBlackoutFreezesTheStack: during a comms blackout the system's clock
// stops (it receives no epochs) while the mission clock keeps running.
func TestBlackoutFreezesTheStack(t *testing.T) {
	timing := SILTiming()
	timing.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.CommsBlackout, Start: 4, Duration: 3},
	}}
	sc, err := worldgen.Generate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildSystem(core.V1, sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig(42)
	cfg.Timing = timing
	r := Run(sc, sys, cfg)
	// The stack missed 3 s of epochs: its clock trails the mission clock
	// by the blackout length (unless the mission ended before recovery).
	if lag := r.Duration - sys.Clock(); lag < 2.9 || lag > 3.1 {
		t.Errorf("system clock lag %.2f s, want ≈ blackout length 3 s (duration %.1f, clock %.1f)",
			lag, r.Duration, sys.Clock())
	}
	if r.DegradedTicks < 55 || r.DegradedTicks > 65 { // 3 s at 20 Hz
		t.Errorf("DegradedTicks = %d, want ≈60", r.DegradedTicks)
	}
}

// TestRecoveryMetric: a brief early gust the mission flies through must
// report recovery shortly after the window closes.
func TestRecoveryMetric(t *testing.T) {
	timing := SILTiming()
	timing.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.WindGust, Start: 3, Duration: 4, Magnitude: 1.0},
	}}
	r := runCell(t, core.V1, 0, 0, timing)
	if !r.Recovered {
		t.Fatalf("mission did not recover from a mild gust window: %+v", r)
	}
	if r.RecoverySeconds < 0 || r.RecoverySeconds > 5 {
		t.Errorf("RecoverySeconds = %.2f, want small and nonnegative", r.RecoverySeconds)
	}
}

// TestPipelinedFaultsMatchInlineAtK0: with a synchronous handoff the
// staged runner must reproduce the inline runner bit for bit under an
// active fault plan too — the perception-side fault draws land in the
// same per-frame order.
func TestPipelinedFaultsMatchInlineAtK0(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.DepthDropout, Start: 5, Duration: 8, Probability: 0.6},
		{Kind: fault.ColorNoise, Start: 6, Duration: 10, Magnitude: 0.05},
		{Kind: fault.GPSDrift, Start: 8, Duration: 10, Magnitude: 0.3},
		{Kind: fault.CommsBlackout, Start: 20, Duration: 2},
	}}
	inline := SILTiming()
	inline.Faults = plan
	want := runCell(t, core.V1, 1, 0, inline)

	staged := inline
	staged.Pipeline = PipelineOn
	staged.PipelineLatencyTicks = 0
	got := runCell(t, core.V1, 1, 0, staged)
	if !sameResult(want, got) {
		t.Fatalf("pipelined k=0 fault run diverges from inline:\ninline: %+v\nstaged: %+v", want, got)
	}

	// And a nonzero k is self-reproducible.
	staged.PipelineLatencyTicks = 3
	a := runCell(t, core.V1, 1, 0, staged)
	b := runCell(t, core.V1, 1, 0, staged)
	if !sameResult(a, b) {
		t.Fatal("pipelined fault run with k=3 not reproducible")
	}
}

// TestFaultResultCodecRoundTrip: the dependability metrics must survive
// the journal/shard codec bit-exactly, and a faulted aggregate must keep
// its fault counters and abort-cause tally and digest them.
func TestFaultResultCodecRoundTrip(t *testing.T) {
	timing := SILTiming()
	timing.Faults = faultTestPlan()
	r := runCell(t, core.V1, 0, 0, timing)

	b, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if !sameResult(r, back) {
		t.Fatalf("fault result codec round trip:\nin:  %+v\nout: %+v", r, back)
	}
	if back.Digest() != r.Digest() {
		t.Error("digest changed across codec round trip")
	}

	agg := NewAggregate("test")
	agg.Add(r)
	fake := r
	fake.AbortCause = "landing abort: drifted off the marker"
	fake.Recovered = true
	fake.RecoverySeconds = 4.25
	agg.Add(fake)
	if agg.FaultRuns != 2 || agg.RecoveredRuns == 0 ||
		agg.AbortCauses["landing abort: drifted off the marker"] != 1 {
		t.Fatalf("fault counters lost: %+v", agg)
	}
	other := NewAggregate("test")
	other.Add(r)
	fake.AbortCause = "landing abort: another cause"
	other.Add(fake)
	if other.Digest() == agg.Digest() {
		t.Fatal("the aggregate digest does not cover the abort-cause tally")
	}
	if s := agg.DependabilityString(); s == "" {
		t.Error("DependabilityString empty for a faulted aggregate")
	}
	if s := NewAggregate("x").DependabilityString(); s != "" {
		t.Errorf("DependabilityString non-empty for a nominal aggregate: %q", s)
	}
}

// TestActuatorAndSensorNoiseFaultsInRun drives the remaining fault taps
// through a full mission: thrust loss, command delay/dropout, depth noise
// bursts and frame dropout all active — the run must complete, be
// reproducible, and count its degraded exposure.
func TestActuatorAndSensorNoiseFaultsInRun(t *testing.T) {
	timing := SILTiming()
	timing.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.ThrustLoss, Start: 3, Duration: 10, Magnitude: 0.5},
		{Kind: fault.CommandDelay, Start: 4, Duration: 8, Magnitude: 3},
		{Kind: fault.CommandDropout, Start: 5, Duration: 6, Probability: 0.4},
		{Kind: fault.DepthNoise, Start: 3, Duration: 12},
		{Kind: fault.ColorDropout, Start: 6, Duration: 4, Probability: 0.5},
		{Kind: fault.ColorNoise, Start: 3, Duration: 15, Magnitude: 0.05},
	}}
	a := runCell(t, core.V1, 0, 0, timing)
	b := runCell(t, core.V1, 0, 0, timing)
	if !sameResult(a, b) {
		t.Fatal("actuator/sensor fault run not reproducible")
	}
	if a.DegradedTicks == 0 {
		t.Error("no degraded ticks under six overlapping windows")
	}
	nominal := runCell(t, core.V1, 0, 0, SILTiming())
	if sameResult(a, nominal) {
		t.Error("heavy actuator/sensor faults left the run untouched")
	}
}

// TestAbortCauseRecorded: a mission that aborts under an active fault
// plan reports the proximate failsafe trigger as its abort cause.
func TestAbortCauseRecorded(t *testing.T) {
	sc, err := worldgen.Generate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildSystem(core.V3, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A V3 stack with no retry budget and a tight search timeout: blinded
	// by a certain detector-miss window it must abort quickly.
	cfg := base.Config()
	cfg.SearchTimeout = 6
	cfg.MaxFailsafes = 0
	dict := vision.DefaultDictionary()
	sys, err := core.NewSystem(cfg, core.Dependencies{
		Detector: detect.NewLearnedV3(dict),
		Map:      mapping.NewOctree(geom.V3(0, 0, 16), 160, 0.5, 1.0),
		Planner:  planning.NewRRTStar(planning.DefaultRRTStarConfig(), 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig(7)
	rc.Timing = SILTiming()
	rc.Timing.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.DetectorMiss, Start: 0.01}, // unbounded: never recovers
	}}
	r := Run(sc, sys, rc)
	if r.FinalState != core.StateAborted {
		t.Fatalf("mission did not abort (final state %v, outcome %v)", r.FinalState, r.Outcome)
	}
	if r.AbortCause == "" {
		t.Fatal("aborted fault-campaign mission has no AbortCause")
	}
	// The recorded cause is the proximate trigger: the last failsafe entry
	// in the system's event log.
	want := ""
	for _, ev := range sys.Events() {
		if ev.To == core.StateFailsafe {
			want = ev.Cause
		}
	}
	if want == "" || r.AbortCause != want {
		t.Errorf("AbortCause %q, want last failsafe trigger %q", r.AbortCause, want)
	}
}
