// Package scenario executes benchmark runs: it wires a landing system
// (internal/core) to the simulation substrate (internal/sim, worldgen),
// steps the closed loop, classifies outcomes the way Table I does
// (success / failure-by-collision / failure-by-poor-landing), and
// aggregates detection statistics for Table II.
//
// The runner is the only component that touches ground truth; the system
// under test sees sensors exclusively.
//
// A mission bundles the simulated vehicle, its sensors and the system
// under test, and one tick body advances it: Run drives it solo, the
// fleet runner drives many in lockstep. Perception results reach the
// control loop through one tick-stamped stage (stage.go). Timing.Pipeline
// selects whether that stage runs its work on the control loop at submit
// time, delivering in the same tick (PipelineOff, the historical order),
// or on its own goroutine, delivering k ticks later (PipelineOn, see
// pipeline.go); staged planning is a second stage of the same type.
package scenario

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vision"
	"repro/internal/worldgen"
)

// Outcome classifies one run per the paper's Table I taxonomy.
type Outcome int

// Outcomes.
const (
	// Success: touched down on the pad without collisions.
	Success Outcome = iota
	// FailureCollision: struck an obstacle or uncontrolled ground impact.
	FailureCollision
	// FailurePoorLanding: no crash, but no acceptable landing either —
	// landed off-pad, landed on water, aborted, or timed out.
	FailurePoorLanding
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case FailureCollision:
		return "collision"
	case FailurePoorLanding:
		return "poor-landing"
	default:
		return "unknown"
	}
}

// Timing carries the module cadences of one deployment profile. SIL runs
// everything at native rates; the HIL profile stretches them to model the
// Jetson Nano's compute budget (paper RQ2).
type Timing struct {
	// Dt is the physics/control period in seconds.
	Dt float64
	// DetectPeriod is the marker-detection frame period.
	DetectPeriod float64
	// DepthPeriod is the depth-capture/mapping period.
	DepthPeriod float64
	// CommandLatencyTicks delays command application by whole ticks (compute
	// latency between sensing and actuation).
	CommandLatencyTicks int

	// Pipeline selects inline (off) or staged (on) perception execution;
	// see pipeline.go. The knob lives on Timing so it travels everywhere a
	// deployment profile does: campaign Specs, checkpoint-journal
	// signatures, and the coordinator's lease format. omitempty keeps the
	// zero (PipelineOff) encoding byte-identical to the pre-pipeline
	// Timing, so journals and result files recorded before this knob
	// existed still match their campaign's signature.
	Pipeline PipelineMode `json:",omitempty"`
	// PipelineLatencyTicks is k when the pipeline is on: perception results
	// captured at tick T are applied at tick T+k. Zero is a synchronous
	// handoff (bit-identical to PipelineOff); hil.DerivePipelinedPlan
	// derives k from measured stage cost so the sense-to-act latency is
	// emergent rather than injected.
	PipelineLatencyTicks int `json:",omitempty"`

	// Faults, when non-nil and non-empty, is the run's fault-injection
	// plan (see internal/fault). Like the pipeline knob it lives on Timing
	// so it travels everywhere a deployment profile does — campaign Specs,
	// checkpoint-journal signatures, the lease format — and omitempty
	// keeps the nil encoding byte-identical to the pre-fault Timing, so
	// recorded journals and result files still match their signatures. A
	// nil or empty plan costs nothing: the mission stays on the zero-alloc
	// hot path, bit-identical to the pre-fault engine (guarded by the
	// committed golden sweep digest).
	Faults *fault.Plan `json:",omitempty"`

	// Fast enables the tolerance-verified fast engine mode: the learned
	// detector's coarse-to-fine NCC prefilter, the simulator's bundled
	// depth-ray traversal, and the planner's deduplicated collision-step
	// kernel. Unlike every knob before it, fast mode is deliberately NOT
	// bit-identical to the exact engine — it is instead verified
	// statistically equivalent by campaign.VerifyFast against committed
	// aggregate tolerances, so it is not valid for bit-identity-gated
	// comparisons (golden digests, distributed merges against exact runs).
	// The off state is bit-identical to the historical engine and
	// alloc-neutral (guarded by the committed golden sweep digest), and
	// omitempty keeps the zero encoding byte-identical for recorded
	// journals and result files.
	Fast bool `json:",omitempty"`
	// Fleet, when non-nil with Size >= 2, flies N drones through the run's
	// world in deterministic lockstep with inter-drone sensing (see
	// fleet.go and docs/fleet.md). Like the knobs above it lives on Timing
	// so it travels everywhere a deployment profile does — campaign Specs,
	// checkpoint-journal signatures, the lease format — and omitempty
	// keeps the nil encoding byte-identical to the pre-fleet Timing, so
	// recorded journals and result files still match their
	// signatures. Off (nil, or Size <= 1, which Canonical normalizes to
	// nil) costs one branch in Run and nothing per tick: bit-identical to
	// the solo engine and alloc-neutral (guarded by the committed golden
	// sweep digest and BenchmarkRunFleetOff).
	Fleet *FleetSpec `json:",omitempty"`

	// PlanLatencyTicks, when positive, runs path planning on its own
	// concurrent stage with tick-stamped delivery, mirroring the perception
	// stage: a plan requested at tick T is applied at tick T+k, and the
	// vehicle holds position until it arrives. This models the paper's
	// "trajectory failed to create in time" directly — planning latency
	// becomes hover time instead of a stretched replan cadence. Deliveries
	// block the control loop until the stage catches up, so the applied
	// plan sequence is a pure function of (seed, k): deterministic at any
	// GOMAXPROCS. Zero runs the planner inline on the control loop,
	// bit-identical to the historical engine.
	PlanLatencyTicks int `json:",omitempty"`
}

// SILTiming is the native software-in-the-loop profile.
func SILTiming() Timing {
	return Timing{Dt: 0.05, DetectPeriod: 0.25, DepthPeriod: 0.2}
}

// Canonical returns the timing with inactive knobs normalized: a nil or
// empty fault plan becomes nil, and a nil or single-drone fleet spec
// becomes nil. An empty Plan (or a Size-1 fleet) runs bit-identically to
// the nil knob, so campaign signatures and leases encode both the same
// way — otherwise a checkpoint written with `&fault.Plan{}` or
// `&FleetSpec{Size: 1}` would refuse to resume under a spec whose knob is
// nil.
func (t Timing) Canonical() Timing {
	if !t.Faults.Active() {
		t.Faults = nil
	}
	if !t.Fleet.Active() {
		t.Fleet = nil
	}
	return t
}

// WithFast returns t with the canonical fast engine profile applied: the
// fast kernels on, perception pipelined, and the planner staged. This is
// the profile `-fast` selects in the bench commands and the one
// campaign.VerifyFast holds to the committed tolerances.
//
// Unless t already chose latencies, perception delivers one detect period
// after capture — the point where the stage's compute window matches the
// cadence it must sustain, so the control loop stops stalling on it — and
// plans deliver two ticks after the request, modeling the planner node's
// turnaround.
func (t Timing) WithFast() Timing {
	t.Fast = true
	t.Pipeline = PipelineOn
	if t.PipelineLatencyTicks == 0 {
		t.PipelineLatencyTicks = 2
		if t.Dt > 0 && t.DetectPeriod > t.Dt {
			t.PipelineLatencyTicks = int(math.Round(t.DetectPeriod / t.Dt))
		}
	}
	if t.PlanLatencyTicks == 0 {
		t.PlanLatencyTicks = 2
	}
	return t
}

// RunConfig parameterizes one run.
type RunConfig struct {
	Timing Timing
	// MaxDuration caps mission time in seconds.
	MaxDuration float64
	// Seed drives all sensor noise for the run (worlds are scenario-
	// deterministic; repetitions re-seed sensors only).
	Seed int64
	// SuccessRadius is the on-pad threshold for landing classification.
	SuccessRadius float64
	// ErroneousDepthRate enables the real-world effects of RQ3 (spurious
	// point-cloud clusters, Fig. 5c).
	ErroneousDepthRate float64
	// Platform, when non-nil, is the board the run's load is charged to
	// (Table III / Fig. 7; see Platform).
	Platform *Platform
	// Recorder, when non-nil, receives the run's flight-recorder events
	// (see internal/obs): tick-stamped fault/blackout/degraded edges,
	// perception capture/apply, staged-plan dispositions, fleet
	// separation-band entries, and the terminal abort/end. Events derive
	// only from deterministic simulation state and are recorded from the
	// control-loop goroutine only. Nil (the default) costs one pointer
	// check per site — the untraced path stays on the zero-alloc hot
	// path, guarded by BenchmarkRunTraceOff. RunConfig is runtime-only
	// (never part of campaign signatures), so the knob cannot perturb
	// checkpoint or lease compatibility.
	Recorder obs.Recorder
	// RTK switches the GPS model to RTK-corrected output (§V-C
	// mitigation study).
	RTK bool
}

// DefaultRunConfig returns the SIL run profile.
func DefaultRunConfig(seed int64) RunConfig {
	return RunConfig{
		Timing:        SILTiming(),
		MaxDuration:   300,
		Seed:          seed,
		SuccessRadius: 1.0,
	}
}

// Result is the record of one run.
type Result struct {
	Outcome    Outcome
	FinalState core.State
	// Duration is mission time consumed (seconds).
	Duration float64
	// Landed reports physical touchdown (even if off-pad).
	Landed bool
	// LandingError is the horizontal distance from touchdown to the true
	// marker center; NaN when the vehicle never landed.
	LandingError float64
	// DetectionError is the mean deviation between detected and actual
	// marker positions (paper SIL metric 1); NaN without detections.
	DetectionError float64
	// MarkerVisibleFrames / MarkerDetectedFrames feed the Table II
	// false-negative rate.
	MarkerVisibleFrames  int
	MarkerDetectedFrames int
	// OnWater marks a touchdown on water (counted as poor landing).
	OnWater bool
	// Stats carries the system's internal counters.
	Stats core.Stats
	// MaxGPSDrift is the largest GPS bias seen (Fig. 5d analysis).
	MaxGPSDrift float64
	// Resources is a hardware run's platform-load summary; nil without
	// RunConfig.Platform (and then absent from the wire encoding).
	Resources *Resources

	// Dependability metrics, populated only by fault campaigns (all zero
	// on nominal runs, and omitted from the wire encoding, so the digests
	// of pre-fault campaigns are unchanged).
	//
	// DegradedTicks counts control ticks with at least one active fault;
	// FaultInjections counts fault-window activations.
	DegradedTicks   int
	FaultInjections int
	// Recovered reports that the system returned to a nominal state (not
	// failsafe, not aborted) after the last fault window ended;
	// RecoverySeconds is how long that took (the time-to-recover metric).
	Recovered       bool
	RecoverySeconds float64
	// AbortCause names the proximate failure that ended an aborted
	// mission (the last failsafe trigger before the abort).
	AbortCause string

	// Airspace-deconfliction metrics, populated only by fleet runs (all
	// zero on solo runs, and omitted from the wire encoding, so the
	// digests of pre-fleet campaigns are unchanged). See docs/fleet.md
	// for the exact definitions.
	//
	// FleetSize is the number of drones flown (>= 2 on fleet runs);
	// FleetSuccesses counts members whose own mission classified Success.
	FleetSize      int
	FleetSuccesses int
	// NearMisses counts pair events entering the near-miss shell
	// [SeparationMin, NearMissRadius); SeparationViolations counts pair
	// events closing inside SeparationMin. Both count band entries, not
	// ticks spent inside a band.
	NearMisses           int
	SeparationViolations int
	// FleetThroughput is successful landings per square kilometer of the
	// world's ground footprint — the airspace-capacity metric.
	FleetThroughput float64
}

// FalseNegativeRate returns the per-run detector FNR, or NaN when the
// marker was never visible.
func (r Result) FalseNegativeRate() float64 {
	if r.MarkerVisibleFrames == 0 {
		return math.NaN()
	}
	miss := r.MarkerVisibleFrames - r.MarkerDetectedFrames
	return float64(miss) / float64(r.MarkerVisibleFrames)
}

// mission bundles one run's actors: the simulated vehicle and its sensors
// on the ground-truth side, the system under test on the other, plus the
// run's accumulating Result. The control loop and (when pipelined) the
// perception stage share it; field ownership is strict — the perception
// side touches only the immutable world/scenario, the depth and color
// cameras, the depth-point ring, and the system's detector.
type mission struct {
	sc  *worldgen.Scenario
	sys *core.System
	cfg RunConfig
	t   Timing

	w     *sim.World
	drone *sim.Drone
	gps   *sim.GPS
	imu   *sim.IMU
	baro  *sim.Baro
	lidar *sim.LidarAlt
	// depth and color are owned by the perception side: the control loop
	// under PipelineOff, the stage goroutine under PipelineOn.
	depth   *sim.DepthCamera
	color   *sim.ColorCamera
	windRng *rand.Rand
	// depthRing rotates ownership of depth-point buffers across in-flight
	// perception results (perception-side, like the cameras).
	depthRing [][]core.DepthPoint
	ringIdx   int

	res   Result
	now   float64
	steps int

	// Command latency ring: cmdRing[i%len] is tick i's command, so the
	// command from CommandLatencyTicks ago is always resident. Fixed-size,
	// so the latency queue allocates once per run instead of cycling slices.
	cmdRing []core.Command

	// Fault-injection state; all nil/zero (and never touched) on the
	// nominal hot path. inj's control-side state belongs to the control
	// loop; its depth/color queries belong to the perception side, like
	// the cameras (see fault.Injector's concurrency contract).
	inj *fault.Injector
	// tickFaults is the current tick's control-side fault state.
	tickFaults fault.TickState
	// lastCmd is the system's most recent command (held through a comms
	// blackout); heldCmd is the last command actually applied (held
	// through a command dropout).
	lastCmd      core.Command
	heldCmd      core.Command
	recoveryDone bool

	// Perception cadence: the next mission times at which a depth capture
	// / detection frame is due, and the stage their jobs go through.
	nextDetect float64
	nextDepth  float64
	percept    *stage[perceptionJob, perceptionResult]
	// start is the mission's wall-clock start (pipelined wall time).
	start time.Time

	// Staged planner; nil (one branch per tick) without PlanLatencyTicks.
	// curTick is the control loop's current tick index, read by submitPlan
	// to stamp requests.
	plans        *stage[planJob, planResult]
	curTick      int
	planStaleCnt int64

	// Flight recorder; nil (one pointer check per site) unless the run
	// opted in via RunConfig.Recorder. member tags fleet events (0 for
	// solo and the fleet primary, whose traces are identical); the prev*
	// booleans turn the injector's per-tick blackout/degraded levels
	// into enter/exit edges.
	rec          obs.Recorder
	member       int
	prevBlackout bool
	prevDegraded bool

	// load is the platform account; untouched without RunConfig.Platform.
	load platformLoad
}

// newMission normalizes the config and assembles the run's actors. Each
// stochastic concern gets its own RNG stream derived from the run seed
// with a distinct salt (see the stream-splitting scheme in grid.go) so
// streams never alias across concerns or runs — and so the depth/color
// streams can move to the perception stage without perturbing the rest.
func newMission(sc *worldgen.Scenario, sys *core.System, cfg RunConfig) *mission {
	t := cfg.Timing
	if t.Dt <= 0 {
		t = SILTiming()
	}
	if cfg.MaxDuration <= 0 {
		cfg.MaxDuration = 240
	}
	if cfg.SuccessRadius <= 0 {
		cfg.SuccessRadius = 1.0
	}

	m := &mission{
		sc:      sc,
		sys:     sys,
		cfg:     cfg,
		t:       t,
		w:       sc.World,
		drone:   sim.NewDrone(sim.DefaultDroneConfig(), geom.V3(0, 0, 0.15)),
		gps:     sim.NewGPS(subSeed(cfg.Seed, concernGPS), sc.Weather.GPSDegradation),
		imu:     sim.NewIMU(subSeed(cfg.Seed, concernIMU), 1),
		baro:    sim.NewBaro(subSeed(cfg.Seed, concernBaro)),
		lidar:   sim.NewLidarAlt(subSeed(cfg.Seed, concernLidar)),
		depth:   sim.NewDepthCamera(subSeed(cfg.Seed, concernDepth)),
		color:   sim.NewColorCamera(subSeed(cfg.Seed, concernColor)),
		windRng: subRNG(cfg.Seed, concernWind),
		res:     Result{LandingError: math.NaN(), DetectionError: math.NaN()},
		steps:   int(cfg.MaxDuration / t.Dt),
		cmdRing: make([]core.Command, t.CommandLatencyTicks+1),
		rec:     cfg.Recorder,
	}
	if cfg.RTK {
		m.gps.EnableRTK()
	}
	m.depth.ErroneousRate = cfg.ErroneousDepthRate

	// Fault plan: build the injector and its per-concern streams only when
	// the plan is active, so a nil (or empty) plan adds nothing — no
	// allocations, no RNG draws, no branches taken — to the hot path.
	if plan := t.Faults; plan.Active() {
		m.inj = fault.NewInjector(plan, faultStreams(cfg.Seed), fault.Target{
			ID:     sys.Config().TargetID,
			FrameW: downwardIntrinsics.W,
			FrameH: downwardIntrinsics.H,
		})
		// The detection tap runs inside System.Step on the control loop;
		// m.now is the tick being stepped in every runner mode.
		sys.SetDetectionTap(func(dets []detect.Detection) []detect.Detection {
			return m.inj.TapDetections(m.now, dets)
		})
		// Command-delay faults need a deeper command history.
		if extra := m.inj.MaxExtraDelayTicks(); extra > 0 {
			m.cmdRing = make([]core.Command, t.CommandLatencyTicks+extra+1)
		}
	}

	// Fast engine mode: switch the modules that ship a fast kernel. Off
	// costs one branch here and nothing per tick.
	if t.Fast {
		m.depth.Fast = true
		m.color.Fast = true
		sys.EnableFastKernels()
	}

	// The stages come last, so a stage goroutine starts on a fully built
	// mission. PipelineOff perception is the synchronous k = 0 handoff.
	k := 0
	if t.Pipeline == PipelineOn && t.PipelineLatencyTicks > 0 {
		k = t.PipelineLatencyTicks
	}
	m.depthRing = make([][]core.DepthPoint, k+2)
	m.percept = newStage(k, t.Pipeline == PipelineOn, m.perceive)
	m.start = time.Now()
	if k := t.PlanLatencyTicks; k >= 1 {
		m.plans = newStage(k, true, m.plan)
		sys.EnablePlanStage(m.submitPlan)
	}
	return m
}

// finish retires the mission's stages — draining work still in flight —
// detaches the system's plan hook so the System can outlive the mission,
// and folds the concurrent stages into the process-wide counters.
func (m *mission) finish() {
	m.percept.shutdown()
	if m.t.Pipeline == PipelineOn {
		mPipeRuns.Inc()
		mPipeBatches.Add(m.percept.delivered)
		mPipeStageNs.Add(m.percept.busyNs)
		mPipeStallNs.Add(m.percept.stallNs)
		mPipeWallNs.Add(time.Since(m.start).Nanoseconds())
	}
	if m.plans != nil {
		m.plans.shutdown()
		m.sys.DisablePlanStage()
		mPlanRuns.Inc()
		mPlanDelivered.Add(m.plans.delivered)
		mPlanStale.Add(m.planStaleCnt)
		mPlanStageNs.Add(m.plans.busyNs)
		mPlanStallNs.Add(m.plans.stallNs)
	}
}

// Run executes one closed-loop mission of sys on scenario sc. With an
// active fleet spec it flies the whole formation instead (fleet.go); the
// solo path below costs exactly one nil-check when the knob is off.
func Run(sc *worldgen.Scenario, sys *core.System, cfg RunConfig) Result {
	if fl := cfg.Timing.Fleet; fl.Active() {
		return runFleet(sc, sys, cfg, fl)
	}
	m := newMission(sc, sys, cfg)
	defer m.finish()
	for i := 0; i < m.steps; i++ {
		switch m.tick(i) {
		case tickCrashed:
			return m.res
		case tickDone:
			return m.classify()
		}
	}
	return m.classify()
}

// tickStatus is tick's verdict on one control tick.
type tickStatus int

const (
	// tickContinue: the mission flies on.
	tickContinue tickStatus = iota
	// tickCrashed: the vehicle hit something; Result is final as written
	// by the crash accounting (no classify pass).
	tickCrashed
	// tickDone: terminal system state or touchdown; classify() finalizes.
	tickDone
)

// tick advances the mission by one control tick — the one loop body that
// Run and the fleet lockstep runner both drive. Perception is submitted
// before it is applied, so a zero-latency handoff lands within the tick
// that captured it: the historical inline order.
func (m *mission) tick(i int) tickStatus {
	m.now += m.t.Dt
	m.curTick = i
	blackout := m.beginFaultTick()
	epoch := m.beginTick()
	m.deliverDuePlan(i, blackout)

	// A blacked-out link submits nothing: the offboard stack never sees
	// the tick.
	if !blackout {
		m.submitPerception(i)
	}
	markerVisible := m.applyPerception(i, blackout, &epoch)

	var cmd core.Command
	if blackout {
		// Offboard link down: the stack is frozen — no sensor epochs in, no
		// new commands out. The flight controller holds the last commanded
		// setpoint.
		cmd = m.lastCmd
	} else {
		cmd = m.stepSystem(epoch, markerVisible)
		m.lastCmd = cmd
	}
	applied := m.actuate(i, cmd)
	m.trackRecovery(blackout)
	if m.crashed(applied) {
		return tickCrashed
	}
	if m.sys.State().Terminal() || m.drone.Landed() {
		return tickDone
	}
	return tickContinue
}

// beginFaultTick advances the fault injector (when present) to the tick's
// mission time and applies the control-side taps that precede sensor
// reads: injected GPS bias and degraded thrust. Returns whether the
// offboard link is blacked out this tick. A nil injector costs one branch.
func (m *mission) beginFaultTick() bool {
	if m.inj == nil {
		return false
	}
	st := m.inj.Tick(m.now)
	m.tickFaults = st
	if st.Degraded {
		m.res.DegradedTicks++
	}
	m.gps.SetFaultBias(st.GPSBias)
	m.drone.SetThrust(st.ThrustFactor)
	if m.rec != nil {
		// Fault-window edges at the injector's own edge times, then the
		// derived degraded/blackout levels as enter/exit transitions.
		for _, ev := range st.Events {
			phase := obs.PhaseExit
			if ev.Active {
				phase = obs.PhaseEnter
			}
			m.record(obs.Event{Tick: m.curTick, T: ev.T, Kind: "fault", Detail: string(ev.Kind), Phase: phase})
		}
		if st.Degraded != m.prevDegraded {
			m.record(obs.Event{Tick: m.curTick, T: m.now, Kind: "degraded", Phase: phaseOf(st.Degraded)})
			m.prevDegraded = st.Degraded
		}
		if st.Blackout != m.prevBlackout {
			m.record(obs.Event{Tick: m.curTick, T: m.now, Kind: "blackout", Phase: phaseOf(st.Blackout)})
			m.prevBlackout = st.Blackout
		}
	}
	return st.Blackout
}

// record forwards one flight-recorder event, tagging it with the
// mission's fleet member index. Callers nil-check m.rec first so the
// untraced hot path pays one branch and builds no Event.
func (m *mission) record(ev obs.Event) {
	ev.Member = m.member
	m.rec.Record(ev)
}

// recordEnd emits the terminal trace events of a mission: the abort cause
// (aborted missions only; finishFaults has run, so AbortCause is final)
// followed by exactly one end event carrying the outcome.
func (m *mission) recordEnd() {
	if m.rec == nil {
		return
	}
	if m.res.FinalState == core.StateAborted {
		m.record(obs.Event{Tick: m.curTick, T: m.now, Kind: "abort", Detail: m.res.AbortCause})
	}
	m.record(obs.Event{Tick: m.curTick, T: m.now, Kind: "end", Detail: m.res.Outcome.String()})
}

// phaseOf maps a boolean level to the windowed-event phase of its edge.
func phaseOf(active bool) string {
	if active {
		return obs.PhaseEnter
	}
	return obs.PhaseExit
}

// payloadDetail names a perception payload combination for capture/apply
// trace events. Constant strings, so recording stays allocation-free.
func payloadDetail(depth, frame bool) string {
	switch {
	case depth && frame:
		return "depth+frame"
	case depth:
		return "depth"
	case frame:
		return "frame"
	default:
		return "none"
	}
}

// captureDepth runs one forward depth capture through the fault taps:
// dropout windows eat the frame, noise bursts scale the camera's range
// sigma. Perception-side (the stage goroutine calls it in a pipelined
// mission), so the mission time of the capture arrives as an argument.
func (m *mission) captureDepth(pos geom.Vec3, yaw, now float64) ([]sim.DepthReturn, bool) {
	if m.inj == nil {
		return m.depth.Capture(m.w, pos, yaw), true
	}
	if m.inj.DropDepth(now) {
		return nil, false
	}
	if s := m.inj.DepthNoiseScale(now); s != 1 {
		old := m.depth.NoiseStd
		m.depth.NoiseStd = old * s
		returns := m.depth.Capture(m.w, pos, yaw)
		m.depth.NoiseStd = old
		return returns, true
	}
	return m.depth.Capture(m.w, pos, yaw), true
}

// captureFrame runs one downward camera capture through the fault taps:
// dropout windows eat the frame, noise bursts corrupt its pixels.
// Perception-side, like captureDepth.
func (m *mission) captureFrame(pos geom.Vec3, yaw, speed, now float64) (*vision.Image, bool) {
	if m.inj == nil {
		return m.color.Capture(m.w, m.sc.Weather, pos, yaw, speed), true
	}
	if m.inj.DropFrame(now) {
		return nil, false
	}
	frame := m.color.Capture(m.w, m.sc.Weather, pos, yaw, speed)
	m.inj.CorruptFrame(frame, now)
	return frame, true
}

// trackRecovery implements the time-to-recover metric: once every fault
// window has permanently ended, the first tick where the system is back in
// a nominal state (not failsafe, not aborted, link up) marks recovery.
func (m *mission) trackRecovery(blackout bool) {
	if m.inj == nil || m.recoveryDone || m.res.DegradedTicks == 0 {
		return
	}
	over, end := m.inj.WindowsOver(m.now)
	if !over || blackout {
		return
	}
	if st := m.sys.State(); st != core.StateFailsafe && st != core.StateAborted {
		m.res.Recovered = true
		m.res.RecoverySeconds = m.now - end
		m.recoveryDone = true
	}
}

// finishFaults fills the fault-campaign metrics of the final Result: the
// injection count and, for aborted missions, the proximate failure cause
// (the last failsafe trigger before the abort).
func (m *mission) finishFaults() {
	if m.inj == nil {
		return
	}
	m.res.FaultInjections = m.inj.Injections()
	if m.res.FinalState == core.StateAborted {
		cause := ""
		for _, ev := range m.sys.Events() {
			switch ev.To {
			case core.StateFailsafe:
				cause = ev.Cause
			case core.StateAborted:
				if cause == "" {
					cause = ev.Cause
				}
			}
		}
		m.res.AbortCause = cause
	}
}

// beginTick advances the always-on sensors and assembles the tick's base
// epoch (GPS, IMU, barometer, lidar).
func (m *mission) beginTick() core.SensorEpoch {
	m.gps.Step(m.t.Dt)
	m.baro.Step(m.t.Dt)
	if b := m.gps.Bias().Len(); b > m.res.MaxGPSDrift {
		m.res.MaxGPSDrift = b
	}
	epoch := core.SensorEpoch{
		Dt:      m.t.Dt,
		GPS:     m.gps.Read(m.drone.Pos),
		IMUVel:  m.imu.ReadVel(m.drone.Vel),
		BaroAlt: m.baro.Read(m.drone.Pos.Z),
	}
	if r, ok := m.lidar.Read(m.w, m.drone.Pos); ok {
		epoch.LidarRange = r
		epoch.LidarOK = true
	}
	return epoch
}

// stepSystem feeds one epoch to the system under test, maintains the
// Table II detection accounting, and charges the step to the platform.
func (m *mission) stepSystem(epoch core.SensorEpoch, markerVisible bool) core.Command {
	detBefore := m.sys.Stats().Detections
	plansBefore := m.sys.Stats().Replans + m.sys.Stats().PlanFailures
	cmd := m.sys.Step(epoch)
	if markerVisible && m.sys.Stats().Detections > detBefore {
		m.res.MarkerDetectedFrames++
	}
	if p := m.cfg.Platform; p != nil {
		plans := m.sys.Stats().Replans + m.sys.Stats().PlanFailures - plansBefore
		m.chargePlatform(p, epoch.HaveDetections, epoch.Depth != nil, plans)
	}
	return cmd
}

// actuate applies command latency (compute delay between sense and act):
// the command from CommandLatencyTicks ago steps the physics, or the first
// command ever issued while the ring is still filling. Actuator faults
// stretch the latency (command-delay), drop the tick's command entirely
// (the controller holds the last applied one), and add injected gusts; the
// nominal path is unchanged — the gust draw consumes the same windRng
// sample in the same place.
func (m *mission) actuate(i int, cmd core.Command) core.Command {
	m.cmdRing[i%len(m.cmdRing)] = cmd
	latency := m.t.CommandLatencyTicks
	wind := m.sc.Weather.GustAt(m.windRng)
	if m.inj != nil {
		latency += m.tickFaults.ExtraDelayTicks
		wind = wind.Add(m.tickFaults.ExtraGust)
	}
	applied := m.cmdRing[0]
	if i >= latency {
		applied = m.cmdRing[(i-latency)%len(m.cmdRing)]
	}
	if m.inj != nil && m.tickFaults.DropCommand {
		applied = m.heldCmd
	} else {
		m.heldCmd = applied
	}
	m.drone.SetYaw(applied.Yaw)
	m.drone.Step(m.t.Dt, applied.Vel, wind)
	return applied
}

// crashed performs the ground-truth safety accounting after one physics
// step; when it returns true the Result is final.
func (m *mission) crashed(applied core.Command) bool {
	if hitObstacle(m.w, m.drone.Pos, m.drone.Cfg.Radius) {
		m.res.Outcome = FailureCollision
		m.res.FinalState = m.sys.State()
		m.res.Duration = m.now
		finishMetrics(&m.res, m.sys, m.sc)
		m.finishFaults()
		m.finishPlatform()
		m.recordEnd()
		return true
	}
	if m.drone.Pos.Z <= m.drone.Cfg.Radius*0.6 && !m.drone.Landed() {
		st := m.sys.State()
		if applied.WantLand || st == core.StateFinalDescent || st == core.StateLanded {
			m.drone.Land()
			m.res.Landed = true
			m.res.LandingError = m.drone.Pos.HorizDist(m.sc.TrueMarker)
			m.res.OnWater = m.w.OnWater(m.drone.Pos.X, m.drone.Pos.Y)
		} else if m.now > 2 { // takeoff grace period
			m.res.Outcome = FailureCollision
			m.res.FinalState = st
			m.res.Duration = m.now
			finishMetrics(&m.res, m.sys, m.sc)
			m.finishFaults()
			m.finishPlatform()
			m.recordEnd()
			return true
		}
	}
	return false
}

// classify finalizes a mission that ran to termination without crashing.
func (m *mission) classify() Result {
	m.res.Duration = m.now
	m.res.FinalState = m.sys.State()
	finishMetrics(&m.res, m.sys, m.sc)
	m.finishFaults()
	m.finishPlatform()
	switch {
	case m.res.Landed && !m.res.OnWater && m.res.LandingError <= m.cfg.SuccessRadius:
		m.res.Outcome = Success
	default:
		m.res.Outcome = FailurePoorLanding
	}
	m.recordEnd()
	return m.res
}

// finishMetrics fills the detection-deviation metric from the system's
// accepted detections versus ground truth.
func finishMetrics(res *Result, sys *core.System, sc *worldgen.Scenario) {
	mMissionDuration.Observe(res.Duration)
	res.Stats = sys.Stats()
	if n := len(res.Stats.DetectionPositions); n > 0 {
		var sum float64
		for _, p := range res.Stats.DetectionPositions {
			sum += p.HorizDist(sc.TrueMarker)
		}
		res.DetectionError = sum / float64(n)
	}
}

// downwardIntrinsics is the downward color camera's intrinsics, hoisted to
// package level: markerInView runs every detection tick and used to build
// a whole ColorCamera (including its RNG state) just to read this value.
var downwardIntrinsics = vision.DefaultCamera()

// markerInView reports whether the true target marker is comfortably
// inside the downward camera frustum at a decodable apparent size — the
// ground-truth denominator of the Table II false-negative rate. Pure over
// the immutable world, so the perception stage may call it concurrently
// with the control loop.
func markerInView(w *sim.World, sc *worldgen.Scenario, pos geom.Vec3, yaw float64) bool {
	target, ok := w.TargetMarker()
	if !ok {
		return false
	}
	alt := pos.Z
	if alt < 3 || alt > 26 {
		return false
	}
	cam := downwardIntrinsics
	cam.Pos = pos
	cam.Yaw = yaw
	px, inside := cam.ProjectGround(target.Center)
	if !inside {
		return false
	}
	// Require the whole pad inside the frame with margin.
	half := cam.ApparentSizePx(target.Size, 0) / 2
	if px.X < half || px.Y < half ||
		px.X > float64(cam.W)-half || px.Y > float64(cam.H)-half {
		return false
	}
	// Occluded from above (roof/canopy between drone and marker)?
	if w.GroundHeightAt(target.Center.X, target.Center.Y) > 0 {
		return false
	}
	return true
}

// hitObstacle is CollideSphere minus the ground plane (landing handles
// ground contact separately); the world routes it through its spatial
// index.
func hitObstacle(w *sim.World, c geom.Vec3, r float64) bool {
	return w.HitObstacle(c, r)
}
