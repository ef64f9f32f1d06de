package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/planning"
)

// System is the autonomous landing system: perception, mapping, decision
// making, planning and control wired per Fig. 1, driven by the Fig. 2
// state machine.
type System struct {
	cfg  Config
	deps Dependencies

	est *control.Estimator
	fol *control.Follower

	state  State
	t      float64
	events []Event
	stats  Stats

	// Transit/search.
	tookOff     bool
	spiral      []geom.Vec3
	spiralIdx   int
	searchStart float64
	lastReplanT float64
	// searchGoal is the spiral waypoint currently being flown; a brake or
	// revalidation stop replans to it rather than advancing the pattern.
	searchGoal       geom.Vec3
	searchGoalActive bool

	// Candidate and landing target.
	candidate      geom.Vec3
	haveCandidate  bool
	markerEst      geom.Vec3
	lastDetectionT float64
	// landingAligned arms the drift abort once the vehicle has centered
	// over the marker at least once this landing episode.
	landingAligned bool

	// Validation episode.
	valStart  float64
	valFrames int
	valHits   int
	valHover  geom.Vec3

	// Failsafe.
	failsafes int

	// flyingFallback marks that the current trajectory is an unguarded
	// straight-line fallback (the documented MLS-V2 unsafe behavior).
	flyingFallback bool

	yaw    float64
	lastDt float64

	// detTap, when non-nil, filters or augments every frame's detector
	// output before it reaches the decision layer — the fault-injection
	// hook for missed and phantom detections. It runs inside Step on
	// every delivered frame, whatever stage computed the detections.
	detTap func([]detect.Detection) []detect.Detection

	// lastClearPos is the most recent estimate position outside every
	// inflated obstacle; the failsafe retreats there before climbing.
	lastClearPos geom.Vec3
	haveClearPos bool
	lastGuardT   float64

	// Reusable point-cloud buffers for depth integration.
	cloudEnds []geom.Vec3
	cloudHits []bool
	// fastInsert bundles depth clouds before map fusion (fast engine mode):
	// hit rays always integrate, miss rays decimate 2x with a phase that
	// alternates per capture (cloudSeq) so dropped columns fill on the next
	// further cycles. Adjacent fan rays diverge past the voxel size at
	// range, so this cuts most far-field free-space updates the octree
	// walks.
	fastInsert bool
	cloudSeq   int

	// estHist is a short ring of per-tick fused estimates (a TF buffer in
	// miniature): pipelined epochs arrive LagTicks after capture, and
	// projecting them needs the pose belief from the capture tick, not the
	// delivery tick (SensorEpoch.LagTicks).
	estHist  [64]control.Estimate
	estHistN int

	// Staged-planning state (see asyncplan.go); all nil/zero — and planTo
	// takes one extra branch — when no plan stage is attached.
	planSubmit  func(start, goal geom.Vec3)
	planPending bool
	planGoal    geom.Vec3
	planState   State
	defOps      []deferredMapOp
}

// NewSystem wires a system from explicit dependencies. Most callers use
// the NewV1/NewV2/NewV3 assemblies.
func NewSystem(cfg Config, deps Dependencies) (*System, error) {
	if deps.Detector == nil || deps.Map == nil || deps.Planner == nil {
		return nil, errors.New("core: detector, map and planner are all required")
	}
	if cfg.TargetID < 0 {
		return nil, fmt.Errorf("core: invalid target ID %d", cfg.TargetID)
	}
	if cfg.SearchAltitude <= 2 {
		return nil, fmt.Errorf("core: search altitude %.1f too low", cfg.SearchAltitude)
	}
	if cfg.ValidationThreshold > cfg.ValidationFrames {
		return nil, fmt.Errorf("core: validation threshold %d exceeds frame budget %d",
			cfg.ValidationThreshold, cfg.ValidationFrames)
	}
	return &System{
		cfg:            cfg,
		deps:           deps,
		est:            control.NewEstimator(control.DefaultEstimatorConfig()),
		fol:            control.NewFollower(control.DefaultFollowerConfig()),
		state:          StateTransit,
		lastDetectionT: math.Inf(-1),
	}, nil
}

// State returns the current decision state.
func (s *System) State() State { return s.state }

// Stats returns the per-run decision metrics.
func (s *System) Stats() Stats { return s.stats }

// Events returns the transition log.
func (s *System) Events() []Event { return s.events }

// Estimate returns the current fused state estimate.
func (s *System) Estimate() control.Estimate { return s.est.Current() }

// MarkerEstimate returns the system's current belief of the landing
// marker's world position and whether one exists.
func (s *System) MarkerEstimate() (geom.Vec3, bool) {
	if !s.haveCandidate {
		return geom.Vec3{}, false
	}
	return s.markerEst, true
}

// Clock returns the mission time in seconds.
func (s *System) Clock() float64 { return s.t }

// Map exposes the occupancy map for visualization and analysis tools.
func (s *System) Map() mapping.Map { return s.deps.Map }

// Detector exposes the detection module so the runner can invoke
// inference: epochs carry its Detections, and Step never calls the
// detector, so the perception stage is its only caller.
func (s *System) Detector() detect.Detector { return s.deps.Detector }

// SetDetectionTap installs (or clears, with nil) the detection fault hook:
// every frame's detector output passes through tap before the decision
// layer sees it. The tap may return a slice it owns; the system consumes
// detections within the Step that received them and retains nothing.
func (s *System) SetDetectionTap(tap func([]detect.Detection) []detect.Detection) {
	s.detTap = tap
}

// SetReplanInterval overrides the trajectory-revalidation cadence; the HIL
// harness uses it to apply the platform's achievable planning rate.
func (s *System) SetReplanInterval(v float64) {
	if v > 0 {
		s.cfg.ReplanInterval = v
	}
}

// SetGuardInterval overrides the brake-guard cadence (see
// Config.GuardInterval); the HIL harness stretches it with the rest of
// the perception stack.
func (s *System) SetGuardInterval(v float64) {
	if v >= 0 {
		s.cfg.GuardInterval = v
	}
}

// SetOffboardRelativeDescent toggles the §V-C final-descent mitigation.
func (s *System) SetOffboardRelativeDescent(on bool) {
	s.cfg.OffboardRelativeDescent = on
}

// Config returns a copy of the active configuration.
func (s *System) Config() Config { return s.cfg }

// transition records and applies a state change.
func (s *System) transition(to State, cause string) {
	s.events = append(s.events, Event{T: s.t, From: s.state, To: to, Cause: cause})
	s.state = to
}

// Step consumes one sensor epoch and returns the command for this tick.
func (s *System) Step(in SensorEpoch) Command {
	if in.Dt <= 0 {
		return Command{Yaw: s.yaw}
	}
	s.t += in.Dt
	s.lastDt = in.Dt

	est := s.est.Update(control.Inputs{
		Dt: in.Dt, GPS: in.GPS, IMUVel: in.IMUVel,
		LidarRange: in.LidarRange, LidarOK: in.LidarOK, BaroAlt: in.BaroAlt,
	})
	s.estHist[s.estHistN%len(s.estHist)] = est
	s.estHistN++

	s.integrateDepth(in, est)
	s.processFrame(in, est)

	if !s.deps.Map.Blocked(est.Pos) {
		s.lastClearPos = est.Pos
		s.haveClearPos = true
	}

	var cmd Command
	switch s.state {
	case StateTransit:
		cmd = s.stepTransit(est)
	case StateSearch:
		cmd = s.stepSearch(est)
	case StateValidate:
		cmd = s.stepValidate(est)
	case StateLanding:
		cmd = s.stepLanding(est)
	case StateFinalDescent:
		cmd = s.stepFinalDescent(est)
	case StateFailsafe:
		cmd = s.stepFailsafe(est)
	case StateLanded, StateAborted:
		cmd = Command{}
	}

	// Safety monitor (Fig. 2 "safe trajectory" check): map-based systems
	// brake and replan when the velocity lookahead enters an inflated
	// obstacle. V2 skips the check while flying its documented unsafe
	// straight-line fallback; V1 has no map to check against.
	if s.cfg.BrakeGuard && !s.flyingFallback && s.tookOff &&
		s.t-s.lastGuardT >= s.cfg.GuardInterval &&
		(s.state == StateTransit || s.state == StateSearch) &&
		!s.deps.Map.Blocked(est.Pos) { // already-inside is failsafe's job
		s.lastGuardT = s.t
		lookFar := est.Pos.Add(est.Vel.Scale(2.0))
		lookNear := est.Pos.Add(est.Vel.Scale(0.9))
		if s.deps.Map.Blocked(lookFar) || s.deps.Map.Blocked(lookNear) {
			s.fol.Stop()
			s.lastReplanT = s.t - s.cfg.ReplanInterval // allow instant replan
			cmd.Vel = geom.Vec3{}                      // brake
		}
	}

	// Heading follows the commanded velocity so the depth camera looks
	// where the vehicle goes.
	if h := cmd.Vel.WithZ(0); h.Len() > 0.6 {
		s.yaw = h.Heading()
	}
	cmd.Yaw = s.yaw
	return cmd
}

// pastEstimate returns the fused estimate from lag ticks ago (0: the one
// computed this tick), clamped to the retained history — the pose the
// system believed at a pipelined epoch's capture tick.
func (s *System) pastEstimate(lag int) control.Estimate {
	if lag >= s.estHistN {
		lag = s.estHistN - 1
	}
	if lag >= len(s.estHist) {
		lag = len(s.estHist) - 1
	}
	if lag < 0 {
		lag = 0
	}
	return s.estHist[(s.estHistN-1-lag)%len(s.estHist)]
}

// integrateDepth transforms body-frame depth returns with the ESTIMATED
// pose — the belief at the capture tick, per SensorEpoch.LagTicks — and
// fuses them into the occupancy map: state-estimate error therefore
// corrupts the map exactly as the paper observed in the field.
func (s *System) integrateDepth(in SensorEpoch, est control.Estimate) {
	if s.planPending {
		// A staged plan is in flight: the stage is reading the map, so
		// postpone the writes until delivery (asyncplan.go).
		s.deferMapWrites(in, est)
		return
	}
	if s.deps.LocalMap != nil {
		s.deps.LocalMap.Recenter(est.Pos)
	}
	if len(in.Depth) == 0 {
		return
	}
	capPos := s.pastEstimate(in.LagTicks).Pos
	if cap(s.cloudEnds) < len(in.Depth) {
		s.cloudEnds = make([]geom.Vec3, 0, len(in.Depth))
		s.cloudHits = make([]bool, 0, len(in.Depth))
	}
	s.cloudEnds, s.cloudHits = s.worldCloud(s.cloudEnds[:0], s.cloudHits[:0], in, capPos)
	s.deps.Map.InsertCloud(capPos, s.cloudEnds, s.cloudHits)
}

// worldCloud appends in's depth returns to ends and hits, rotated from
// the body frame by the capture yaw and translated to capPos, keeping the
// miss rays this capture's parity selects (nextCloudParity). Inline
// integration and the deferred writes of a staged plan both build their
// clouds here.
func (s *System) worldCloud(ends []geom.Vec3, hits []bool, in SensorEpoch, capPos geom.Vec3) ([]geom.Vec3, []bool) {
	cy, sy := math.Cos(in.DepthYaw), math.Sin(in.DepthYaw)
	par := s.nextCloudParity()
	for i, d := range in.Depth {
		if par >= 0 && !d.Hit && i&1 != par {
			continue
		}
		w := geom.V3(
			d.P.X*cy-d.P.Y*sy,
			d.P.X*sy+d.P.Y*cy,
			d.P.Z,
		).Add(capPos)
		ends = append(ends, w)
		hits = append(hits, d.Hit)
	}
	return ends, hits
}

// processFrame consumes the detections the perception stage computed for
// a new camera frame and routes accepted target sightings into the state
// machine.
func (s *System) processFrame(in SensorEpoch, est control.Estimate) {
	if !in.HaveDetections {
		return
	}
	dets := in.Detections
	if s.detTap != nil {
		dets = s.detTap(dets)
	}
	cam := s.cfg.Camera
	cam.Pos = s.pastEstimate(in.LagTicks).Pos
	cam.Yaw = in.FrameYaw

	var bestTarget geom.Vec3
	haveTarget := false
	for _, det := range dets {
		if det.Confidence < s.cfg.MinConfidence || det.ID != s.cfg.TargetID {
			continue
		}
		world, ok := cam.PixelToGround(det.Center.X, det.Center.Y, 0)
		if !ok {
			continue
		}
		s.stats.Detections++
		s.stats.DetectionPositions = append(s.stats.DetectionPositions, world)
		if !haveTarget {
			bestTarget = world
			haveTarget = true
		}
	}

	switch s.state {
	case StateTransit, StateSearch:
		if haveTarget {
			s.candidate = bestTarget
			s.haveCandidate = true
			s.beginValidation(est)
		}
	case StateValidate:
		// One frame = one validation sample.
		s.valFrames++
		if haveTarget && bestTarget.HorizDist(s.candidate) <= s.cfg.ValidationRadius {
			s.valHits++
			// Refine the candidate while hovering.
			s.candidate = s.candidate.Lerp(bestTarget, 0.3)
		}
	case StateLanding, StateFinalDescent:
		if haveTarget && bestTarget.HorizDist(s.markerEst) <= 3 {
			s.markerEst = s.markerEst.Lerp(bestTarget, 0.35)
			s.lastDetectionT = s.t
		}
	}
}

// beginValidation enters the validation state per Fig. 2.
func (s *System) beginValidation(est control.Estimate) {
	s.valStart = s.t
	s.valFrames = 0
	s.valHits = 0
	s.valHover = est.Pos
	s.stats.Validations++
	s.fol.Stop()
	s.transition(StateValidate, "marker detected")
}

// planTo builds and loads a trajectory to goal, honoring the generation's
// fallback behavior. Returns false when the system entered failsafe.
func (s *System) planTo(est control.Estimate, goal geom.Vec3) bool {
	if s.planSubmit != nil {
		return s.requestPlan(est, goal)
	}
	s.lastReplanT = s.t
	path, err := s.deps.Planner.Plan(est.Pos, goal, s.deps.Map)
	return s.acceptPlan(path, err, est.Pos, goal) != PlanFailsafe
}

// acceptPlan hands a planned path — planned inline by planTo or delivered
// by the plan stage (DeliverPlan) — to the follower, honoring the
// generation's fallback behavior: a failed plan flies the straight line
// from start to goal or enters failsafe. It reports which of those
// happened.
func (s *System) acceptPlan(path []geom.Vec3, err error, start, goal geom.Vec3) PlanDelivery {
	s.flyingFallback = false
	if err == nil && s.cfg.BBoxSafetyMargin > 0 && s.deps.LocalMap != nil {
		// V2's bounding-box safety validation: paths that pass the
		// planner's inflation can still fail the swollen clearance probe.
		// A path mostly "swallowed" by the boxes counts as invalid — the
		// paper's "invalidating all paths during safety checks".
		if s.bboxSwallowedFraction(path) > 0.22 {
			err = planning.ErrNoPath
		}
	}
	disp := PlanApplied
	if err != nil {
		s.stats.PlanFailures++
		switch s.cfg.Fallback {
		case FallbackStraight:
			// The documented MLS-V2 behavior: fly the unsafe direct line.
			s.stats.PlanFallbacks++
			s.flyingFallback = true
			path = []geom.Vec3{start, goal}
			disp = PlanFallback
		case FallbackFailsafe:
			s.enterFailsafe("planning failed: " + err.Error())
			return PlanFailsafe
		}
	}
	s.stats.Replans++
	s.fol.SetTrajectory(planning.BuildTrajectory(path, s.cfg.Trajectory))
	return disp
}

// bboxSwallowedFraction samples the path against the bounding-box-swollen
// clearance probe and returns the fraction of samples inside a swollen
// footprint, skipping the first two meters (the vehicle's own position may
// already sit near an obstacle).
func (s *System) bboxSwallowedFraction(path []geom.Vec3) float64 {
	const step = 0.8
	traveled := 0.0
	total, bad := 0, 0
	for i := 1; i < len(path); i++ {
		seg := path[i].Sub(path[i-1])
		l := seg.Len()
		n := int(l/step) + 1
		for k := 0; k <= n; k++ {
			traveled += l / float64(n+1)
			if traveled < 2 {
				continue
			}
			total++
			p := path[i-1].Lerp(path[i], float64(k)/float64(n))
			if s.deps.LocalMap.BlockedWithin(p, s.cfg.BBoxSafetyMargin, s.cfg.BBoxSafetyMargin*0.55) {
				bad++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total)
}

// revalidateTrajectory aborts and replans when the remaining trajectory
// has become blocked in the (growing) map. Dynamic replanning arriving too
// late — because this check runs on a stretched cadence under compute
// pressure — is the paper's HIL collision mechanism.
func (s *System) revalidateTrajectory(est control.Estimate, goal geom.Vec3) {
	if s.t-s.lastReplanT < s.cfg.ReplanInterval {
		return
	}
	s.lastReplanT = s.t
	if !s.fol.Active() {
		return
	}
	// Check the imminent segment of the trajectory.
	look := []geom.Vec3{est.Pos, s.fol.Target(), s.fol.End()}
	if planning.PathClear(s.deps.Map, look, 0.4) {
		return
	}
	s.planTo(est, goal)
}

// stepTransit flies to the GPS goal at search altitude.
func (s *System) stepTransit(est control.Estimate) Command {
	if !s.tookOff {
		if est.Pos.Z < s.cfg.SearchAltitude-1.2 {
			return Command{Vel: geom.V3(0, 0, 1.8)}
		}
		s.tookOff = true
		if !s.planTo(est, s.cfg.GPSGoal.WithZ(s.cfg.SearchAltitude)) {
			return Command{}
		}
	}
	goal := s.cfg.GPSGoal.WithZ(s.cfg.SearchAltitude)
	// Arrival requires actual proximity: a follower stopped by the brake
	// guard reports Done but the vehicle has not arrived.
	if est.Pos.HorizDist(goal) < 2 || (s.fol.Active() && s.fol.Done(est, 1.2)) {
		s.transition(StateSearch, "reached GPS estimate")
		s.beginSearch(est)
		return Command{}
	}
	if !s.fol.Active() {
		if !s.planTo(est, goal) {
			return Command{}
		}
	} else {
		s.revalidateTrajectory(est, goal)
		if s.state != StateTransit {
			return Command{}
		}
	}
	return Command{Vel: s.fol.Command(s.dt(), est)}
}

// beginSearch initializes a spiral episode around the GPS goal.
func (s *System) beginSearch(est control.Estimate) {
	s.searchStart = s.t
	s.spiral = SpiralWaypoints(s.cfg.GPSGoal.WithZ(s.cfg.SearchAltitude),
		s.cfg.SpiralSpacing, s.cfg.SpiralMaxRadius)
	s.spiralIdx = 0
	s.searchGoalActive = false
	s.fol.Stop()
	_ = est
}

// stepSearch traverses the spiral until a marker shows up or the timeout
// fires.
func (s *System) stepSearch(est control.Estimate) Command {
	if s.t-s.searchStart > s.cfg.SearchTimeout {
		s.enterFailsafe("search timeout")
		return Command{}
	}
	// Current waypoint reached?
	if s.searchGoalActive && est.Pos.HorizDist(s.searchGoal) < 1.8 {
		s.searchGoalActive = false
	}
	switch {
	case !s.searchGoalActive:
		// Advance the pattern, skipping spiral cells inside mapped
		// structures: the marker cannot be on top of a tower, and
		// climbing over one would thread airspace the forward depth
		// camera has never cleared — the unseen-obstacle trap.
		found := false
		var goal geom.Vec3
		for s.spiralIdx < len(s.spiral) {
			goal = s.spiral[s.spiralIdx]
			s.spiralIdx++
			if !s.deps.Map.Blocked(goal) {
				found = true
				break
			}
		}
		if !found {
			s.enterFailsafe("search pattern exhausted")
			return Command{}
		}
		s.searchGoal = goal
		s.searchGoalActive = true
		if !s.planTo(est, goal) {
			return Command{}
		}
	case !s.fol.Active():
		// A brake or revalidation stopped the follower: replan to the
		// SAME waypoint rather than skipping ahead.
		if !s.planTo(est, s.searchGoal) {
			return Command{}
		}
	default:
		s.revalidateTrajectory(est, s.searchGoal)
		if s.state != StateSearch {
			return Command{}
		}
	}
	return Command{Vel: s.fol.Command(s.dt(), est)}
}

// stepValidate hovers and scores detection consistency per Fig. 2.
func (s *System) stepValidate(est control.Estimate) Command {
	done := s.valFrames >= s.cfg.ValidationFrames
	timedOut := s.t-s.valStart > s.cfg.ValidationTimeout
	if done || timedOut {
		if s.valHits >= s.cfg.ValidationThreshold {
			s.stats.ValidationsOK++
			s.markerEst = s.candidate
			s.lastDetectionT = s.t
			s.landingAligned = false
			s.transition(StateLanding, "validation passed")
		} else {
			s.haveCandidate = false
			s.transition(StateSearch, fmt.Sprintf("validation failed (%d/%d)",
				s.valHits, s.valFrames))
			// Resume the spiral where it left off; the search timer keeps
			// running, bounding repeated false validations.
		}
		return Command{}
	}
	return Command{Vel: control.HoverCommand(est, s.valHover, 1.4, 2.5)}
}

// stepLanding descends toward the validated marker with safety checks.
func (s *System) stepLanding(est control.Estimate) Command {
	target := s.markerEst
	horizErr := est.Pos.HorizDist(target)

	if horizErr < 1.0 {
		s.landingAligned = true
	}
	if s.cfg.LandingAbortChecks {
		// The marker naturally overflows the downward camera's FOV on
		// short final, so continuous-visual-contact enforcement applies
		// only above that altitude (the paper's §V-C off-board relative
		// positioning suggestion addresses the same blind window).
		if est.Pos.Z > 5 && s.t-s.lastDetectionT > s.cfg.MarkerVisibilityTimeout {
			s.abortLanding("marker visibility lost")
			return Command{}
		}
		// The descent column immediately below must be clear.
		below := est.Pos.Add(geom.V3(0, 0, -1.6))
		if s.deps.Map.Blocked(below) {
			s.abortLanding("descent column blocked")
			return Command{}
		}
		// Drift abort arms only after first alignment; before that the
		// vehicle is still flying in from wherever validation happened.
		if s.landingAligned && horizErr > 6 {
			s.abortLanding("drifted off the marker")
			return Command{}
		}
	}

	// Commit to final descent per Fig. 2: within 1.5 m.
	if est.Pos.Z <= s.cfg.FinalDescentAlt+0.2 && horizErr <= 1.0 {
		s.transition(StateFinalDescent, "within final descent window")
		return Command{}
	}

	// Align horizontally, then descend; descend slowly while aligning.
	vz := -0.45
	if horizErr < 0.8 {
		vz = -s.cfg.DescentRate
	}
	horiz := target.Sub(est.Pos).WithZ(0).Scale(1.1).ClampLen(2.2)
	return Command{Vel: horiz.WithZ(vz)}
}

// abortLanding routes a breached safety feature into failsafe.
func (s *System) abortLanding(cause string) {
	s.stats.Aborts++
	s.enterFailsafe("landing abort: " + cause)
}

// stepFinalDescent commits to touchdown.
func (s *System) stepFinalDescent(est control.Estimate) Command {
	if est.Pos.Z <= 0.12 {
		s.transition(StateLanded, "touchdown")
		return Command{WantLand: true}
	}
	// Off-board relative mode (§V-C): coast on inertial velocity so GPS
	// drift below the camera's blind altitude stops dragging the target;
	// the position servo then holds the marker fix in a drift-free frame.
	if s.cfg.OffboardRelativeDescent {
		s.est.SetGPSGainScale(0.03)
	}
	horiz := s.markerEst.Sub(est.Pos).WithZ(0).Scale(1.2).ClampLen(0.8)
	return Command{Vel: horiz.WithZ(-0.6), WantLand: est.Pos.Z < 0.3}
}

// enterFailsafe aborts the current activity and climbs to recover.
func (s *System) enterFailsafe(cause string) {
	s.stats.Failsafes++
	s.fol.Stop()
	s.transition(StateFailsafe, cause)
}

// stepFailsafe climbs to a safe altitude, then either re-enters search or
// gives up when the attempt budget is exhausted.
func (s *System) stepFailsafe(est control.Estimate) Command {
	safeAlt := s.cfg.SearchAltitude + 2
	const climbCeiling = 34

	// Inside an inflated region (or under one): climbing blind along a
	// structure is the unseen-obstacle trap, so first retreat — toward
	// the last position known clear, and failing that, toward home (the
	// corridor the vehicle arrived through), the paper's return-to-home
	// failsafe.
	if s.deps.Map.Blocked(est.Pos) || s.deps.Map.Blocked(est.Pos.Add(geom.V3(0, 0, 1.5))) {
		// Horizontal-only retreat: descending chases stale clear
		// positions into canopies, and pure climbs hug structure walls.
		back := geom.Vec3{}
		if s.haveClearPos {
			back = s.lastClearPos.WithZ(est.Pos.Z).Sub(est.Pos)
		}
		if back.Len() <= 0.7 {
			back = geom.V3(0, 0, est.Pos.Z).Sub(est.Pos) // toward home, level
		}
		if back.Len() > 0.7 {
			vz := 0.4
			if !s.deps.Map.Blocked(est.Pos.Add(geom.V3(0, 0, 2.5))) {
				vz = 1.0 // the air above is clear as far as the map knows
			}
			return Command{Vel: back.Norm().Scale(1.3).WithZ(vz)}
		}
	}
	if est.Pos.Z < safeAlt-0.5 && est.Pos.Z < climbCeiling {
		return Command{Vel: geom.V3(0, 0, 1.6)}
	}
	if s.failsafes >= s.cfg.MaxFailsafes {
		s.transition(StateAborted, "failsafe budget exhausted")
		return Command{}
	}
	s.failsafes++
	s.transition(StateSearch, "failsafe recovery")
	s.beginSearch(est)
	return Command{}
}

// dt returns the nominal control period; the follower needs the step used
// by the caller, which Step recorded via the estimator epoch.
func (s *System) dt() float64 { return s.lastDt }
