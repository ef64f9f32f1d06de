package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/planning"
	"repro/internal/vision"
)

func testSystem(t *testing.T, gen Generation) *System {
	t.Helper()
	dict := vision.DefaultDictionary()
	goal := geom.V3(30, 0, 0)
	var sys *System
	var err error
	switch gen {
	case V1:
		sys, err = NewV1(0, goal, dict)
	case V2:
		sys, err = NewV2(0, goal, dict, 1)
	default:
		sys, err = NewV3(0, goal, dict, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// stepN drives the system with clean synthetic sensors at the true state
// maintained by a trivial kinematic shadow, for n ticks. A non-nil frame
// goes through the system's detector and arrives as the epoch's
// Detections, as the scenario runner's perception stage delivers it.
func stepN(sys *System, pos *geom.Vec3, vel *geom.Vec3, n int, frame func(i int) *vision.Image) Command {
	var cmd Command
	const dt = 0.05
	for i := 0; i < n; i++ {
		epoch := SensorEpoch{
			Dt:         dt,
			GPS:        *pos,
			IMUVel:     *vel,
			LidarRange: pos.Z,
			LidarOK:    pos.Z <= 12,
			BaroAlt:    pos.Z,
		}
		if frame != nil {
			if im := frame(i); im != nil {
				epoch.Detections = sys.Detector().Detect(im)
				epoch.HaveDetections = true
			}
		}
		cmd = sys.Step(epoch)
		// First-order shadow vehicle.
		*vel = vel.Add(cmd.Vel.Sub(*vel).Scale(dt / 0.4))
		*pos = pos.Add(vel.Scale(dt))
		if pos.Z < 0 {
			pos.Z = 0
		}
	}
	return cmd
}

func TestNewSystemValidation(t *testing.T) {
	dict := vision.DefaultDictionary()
	cfg := defaultConfig(0, geom.V3(10, 0, 0))
	deps := Dependencies{
		Detector: detect.NewClassical(dict),
		Map:      mapping.NullMap{},
		Planner:  planning.StraightLine{},
	}
	if _, err := NewSystem(cfg, Dependencies{}); err == nil {
		t.Error("missing deps accepted")
	}
	bad := cfg
	bad.TargetID = -1
	if _, err := NewSystem(bad, deps); err == nil {
		t.Error("negative target ID accepted")
	}
	bad = cfg
	bad.SearchAltitude = 1
	if _, err := NewSystem(bad, deps); err == nil {
		t.Error("too-low search altitude accepted")
	}
	bad = cfg
	bad.ValidationThreshold = bad.ValidationFrames + 1
	if _, err := NewSystem(bad, deps); err == nil {
		t.Error("impossible validation threshold accepted")
	}
	if _, err := NewSystem(cfg, deps); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestGenerationStrings(t *testing.T) {
	if V1.String() != "MLS-V1" || V2.String() != "MLS-V2" || V3.String() != "MLS-V3" {
		t.Error("generation strings")
	}
	if !strings.Contains(Generation(9).String(), "?") {
		t.Error("unknown generation string")
	}
}

func TestStateStringsAndTerminal(t *testing.T) {
	for s := StateTransit; s <= StateAborted; s++ {
		if s.String() == "unknown" {
			t.Errorf("state %d has no name", s)
		}
	}
	if State(99).String() != "unknown" {
		t.Error("invalid state string")
	}
	if !StateLanded.Terminal() || !StateAborted.Terminal() {
		t.Error("terminal states")
	}
	if StateSearch.Terminal() || StateLanding.Terminal() {
		t.Error("non-terminal states misclassified")
	}
}

func TestTakeoffClimbsFirst(t *testing.T) {
	sys := testSystem(t, V3)
	pos := geom.V3(0, 0, 0.2)
	vel := geom.Vec3{}
	cmd := stepN(sys, &pos, &vel, 1, nil)
	if cmd.Vel.Z <= 0 {
		t.Errorf("takeoff command %v not climbing", cmd.Vel)
	}
	if sys.State() != StateTransit {
		t.Errorf("initial state %s", sys.State())
	}
	// After enough climbing the system plans toward the GPS goal.
	stepN(sys, &pos, &vel, 400, nil)
	if pos.Z < 8 {
		t.Errorf("altitude %v after climb", pos.Z)
	}
	if pos.HorizDist(geom.V3(30, 0, 0)) >= 30 {
		t.Error("no horizontal progress toward GPS goal")
	}
}

func TestTransitReachesSearch(t *testing.T) {
	sys := testSystem(t, V3)
	pos := geom.V3(0, 0, 0.2)
	vel := geom.Vec3{}
	stepN(sys, &pos, &vel, 2400, nil) // 2 minutes of clean flight
	if sys.State() != StateSearch && sys.State() != StateFailsafe {
		t.Fatalf("state %s after transit, want search", sys.State())
	}
	if pos.HorizDist(geom.V3(30, 0, 0)) > 30 {
		t.Errorf("vehicle at %v, far from search area", pos)
	}
}

// markerFrame renders a frame with the target marker centered under pos.
func markerFrame(dict *vision.Dictionary, id int, markerAt geom.Vec3, pos geom.Vec3) *vision.Image {
	scene := &vision.Scene{
		Ground: vision.GroundTexture{Seed: 1, Base: 0.45, Contrast: 0.2},
		Markers: []vision.MarkerInstance{{
			Marker: dict.Markers[id],
			Center: markerAt,
			Size:   2,
		}},
	}
	cam := vision.DefaultCamera()
	cam.Pos = pos
	return scene.Render(cam)
}

func TestDetectionTriggersValidationThenLanding(t *testing.T) {
	dict := vision.DefaultDictionary()
	sys := testSystem(t, V3)
	pos := geom.V3(0, 0, 0.2)
	vel := geom.Vec3{}
	// Fly until search.
	stepN(sys, &pos, &vel, 2400, nil)
	if sys.State() != StateSearch {
		t.Skipf("did not reach search (state %s)", sys.State())
	}
	// Feed frames showing the marker directly below every 5 ticks.
	markerAt := geom.V3(pos.X, pos.Y, 0)
	frameFn := func(i int) *vision.Image {
		if i%5 != 0 {
			return nil
		}
		return markerFrame(dict, 0, markerAt, pos)
	}
	stepN(sys, &pos, &vel, 10, frameFn)
	if sys.State() != StateValidate {
		t.Fatalf("state %s after detection, want validate", sys.State())
	}
	// Continue feeding consistent frames: validation should pass and the
	// system should descend and eventually land.
	stepN(sys, &pos, &vel, 3000, frameFn)
	if sys.State() != StateLanded {
		t.Fatalf("state %s, want landed (pos %v)", sys.State(), pos)
	}
	if pos.HorizDist(markerAt) > 1.2 {
		t.Errorf("landed %v from marker", pos.HorizDist(markerAt))
	}
	st := sys.Stats()
	if st.Validations == 0 || st.ValidationsOK == 0 {
		t.Error("validation accounting")
	}
	if m, ok := sys.MarkerEstimate(); !ok || m.HorizDist(markerAt) > 1 {
		t.Errorf("marker estimate %v ok=%v", m, ok)
	}
}

func TestValidationRejectsFlickeringDetection(t *testing.T) {
	dict := vision.DefaultDictionary()
	sys := testSystem(t, V3)
	pos := geom.V3(0, 0, 0.2)
	vel := geom.Vec3{}
	stepN(sys, &pos, &vel, 2400, nil)
	if sys.State() != StateSearch {
		t.Skipf("did not reach search (state %s)", sys.State())
	}
	markerAt := geom.V3(pos.X, pos.Y, 0)
	// One good frame to enter validation, then empty ground frames: the
	// threshold cannot be met, so the system must return to search.
	i := 0
	frameFn := func(_ int) *vision.Image {
		i++
		if i == 1 {
			return markerFrame(dict, 0, markerAt, pos)
		}
		if i%5 != 0 {
			return nil
		}
		return markerFrame(dict, 0, geom.V3(999, 999, 0), pos) // empty view
	}
	stepN(sys, &pos, &vel, 2, frameFn)
	if sys.State() != StateValidate {
		t.Fatalf("state %s, want validate", sys.State())
	}
	stepN(sys, &pos, &vel, 1200, frameFn)
	if sys.State() != StateSearch && sys.State() != StateFailsafe && sys.State() != StateAborted {
		t.Fatalf("state %s after failed validation", sys.State())
	}
	st := sys.Stats()
	if st.Validations == 0 || st.ValidationsOK != 0 {
		t.Errorf("validation accounting: %+v", st)
	}
}

func TestWrongMarkerIDIgnored(t *testing.T) {
	dict := vision.DefaultDictionary()
	sys := testSystem(t, V3) // target ID 0
	pos := geom.V3(0, 0, 0.2)
	vel := geom.Vec3{}
	stepN(sys, &pos, &vel, 2400, nil)
	if sys.State() != StateSearch {
		t.Skipf("did not reach search (state %s)", sys.State())
	}
	// Show a decoy with ID 3 directly below.
	decoyAt := geom.V3(pos.X, pos.Y, 0)
	frameFn := func(i int) *vision.Image {
		if i%5 != 0 {
			return nil
		}
		return markerFrame(dict, 3, decoyAt, pos)
	}
	stepN(sys, &pos, &vel, 50, frameFn)
	if sys.State() == StateValidate || sys.State() == StateLanding {
		t.Fatalf("decoy with wrong ID advanced the state machine to %s", sys.State())
	}
}

func TestSearchTimeoutFailsafe(t *testing.T) {
	sys := testSystem(t, V3)
	pos := geom.V3(0, 0, 0.2)
	vel := geom.Vec3{}
	// Never show a marker: the system must eventually abort through
	// failsafes rather than fly forever.
	stepN(sys, &pos, &vel, 20000, nil) // ~16 minutes
	if sys.State() != StateAborted {
		t.Fatalf("state %s after long markerless run, want aborted", sys.State())
	}
	if sys.Stats().Failsafes == 0 {
		t.Error("no failsafes recorded")
	}
}

func TestZeroDtIgnored(t *testing.T) {
	sys := testSystem(t, V3)
	before := sys.Clock()
	cmd := sys.Step(SensorEpoch{Dt: 0})
	if sys.Clock() != before {
		t.Error("zero-dt advanced the clock")
	}
	if cmd.Vel != (geom.Vec3{}) {
		t.Error("zero-dt produced motion")
	}
}

func TestSafetyInvariantNeverLandWithoutValidation(t *testing.T) {
	// Property: the system must not reach Landing/FinalDescent without a
	// passed validation. Drive with random-ish frames including decoys.
	dict := vision.DefaultDictionary()
	for trial := 0; trial < 3; trial++ {
		sys := testSystem(t, V3)
		pos := geom.V3(0, 0, 0.2)
		vel := geom.Vec3{}
		decoyID := 1 + trial
		frameFn := func(i int) *vision.Image {
			if i%7 != 0 {
				return nil
			}
			return markerFrame(dict, decoyID, geom.V3(pos.X, pos.Y, 0), pos)
		}
		for k := 0; k < 40; k++ {
			stepN(sys, &pos, &vel, 100, frameFn)
			st := sys.State()
			if (st == StateLanding || st == StateFinalDescent || st == StateLanded) &&
				sys.Stats().ValidationsOK == 0 {
				t.Fatalf("trial %d: reached %s without a passed validation", trial, st)
			}
		}
	}
}

func TestEventLogConsistency(t *testing.T) {
	sys := testSystem(t, V3)
	pos := geom.V3(0, 0, 0.2)
	vel := geom.Vec3{}
	stepN(sys, &pos, &vel, 4000, nil)
	events := sys.Events()
	// Chain property: each event's From must equal the previous To.
	prev := StateTransit
	for i, ev := range events {
		if ev.From != prev {
			t.Fatalf("event %d: from %s, want %s", i, ev.From, prev)
		}
		if ev.Cause == "" {
			t.Errorf("event %d has no cause", i)
		}
		prev = ev.To
	}
	if sys.State() != prev {
		t.Error("final state does not match event chain")
	}
	// Timestamps monotone.
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Error("event timestamps not monotone")
		}
	}
}

func TestConfigAccessorsAndSetters(t *testing.T) {
	sys := testSystem(t, V3)
	if sys.Config().Generation != V3 {
		t.Error("config accessor")
	}
	sys.SetReplanInterval(2.5)
	if sys.Config().ReplanInterval != 2.5 {
		t.Error("replan setter")
	}
	sys.SetReplanInterval(-1)
	if sys.Config().ReplanInterval != 2.5 {
		t.Error("negative replan interval applied")
	}
	if sys.Map() == nil {
		t.Error("map accessor")
	}
	if _, ok := sys.MarkerEstimate(); ok {
		t.Error("fresh system has a marker estimate")
	}
	if math.IsNaN(sys.Estimate().Pos.X) {
		t.Error("estimate accessor")
	}
}

func TestBrakeGuardStopsBeforeMappedObstacle(t *testing.T) {
	// A V3 system cruising toward a mapped wall must brake (command ~zero
	// velocity) once its velocity lookahead enters the inflated region.
	sys := testSystem(t, V3)
	pos := geom.V3(0, 0, 0.2)
	vel := geom.Vec3{}
	stepN(sys, &pos, &vel, 200, nil) // airborne, in transit
	if sys.State() != StateTransit {
		t.Skipf("state %s", sys.State())
	}
	// Inject a wall dead ahead into the map via depth input.
	est := sys.Estimate()
	var depth []DepthPoint
	for dy := -3.0; dy <= 3; dy += 0.4 {
		for dz := -2.0; dz <= 2; dz += 0.4 {
			depth = append(depth, DepthPoint{P: geom.V3(6, dy, dz), Hit: true})
		}
	}
	_ = est
	// Simulate flying at the wall: velocity toward +x (the depth points'
	// direction at yaw 0).
	for k := 0; k < 10; k++ {
		cmd := sys.Step(SensorEpoch{
			Dt: 0.05, GPS: pos, IMUVel: geom.V3(4, 0, 0),
			LidarRange: pos.Z, LidarOK: true,
			Depth: depth, DepthYaw: 0,
		})
		_ = cmd
	}
	// Next step with high closing speed: the guard must brake.
	cmd := sys.Step(SensorEpoch{
		Dt: 0.05, GPS: pos, IMUVel: geom.V3(4, 0, 0),
		LidarRange: pos.Z, LidarOK: true,
	})
	if cmd.Vel.Len() > 1.0 {
		t.Errorf("command %v while lookahead blocked, want braking", cmd.Vel)
	}
}

func TestV2FallbackAccounting(t *testing.T) {
	// Drive a V2 system so its planner fails (blocked start deep inside
	// clutter is hard to arrange synthetically, so use the bbox check:
	// surround the route with obstacles) and verify the documented
	// unsafe-fallback accounting.
	dict := vision.DefaultDictionary()
	cfg := defaultConfig(0, geom.V3(40, 0, 0))
	cfg.Generation = V2
	cfg.Fallback = FallbackStraight
	cfg.BBoxSafetyMargin = 3.0 // aggressively swollen: everything fails
	local := mapping.NewLocalGrid(geom.V3(44, 44, 26), 0.5, 0.6)
	sys, err := NewSystem(cfg, Dependencies{
		Detector: detect.NewLearnedV2(dict),
		Map:      local,
		LocalMap: local,
		Planner:  planning.NewAStar(planning.DefaultAStarConfig()),
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := geom.V3(0, 0, 0.2)
	vel := geom.Vec3{}
	stepN(sys, &pos, &vel, 300, nil)
	// A picket wall dead ahead with one narrow gap: A* threads the gap,
	// the swollen bbox probe rejects it, and the documented straight-line
	// fallback engages. The wall must block the active trajectory so
	// revalidation triggers a replan.
	var depth []DepthPoint
	for dy := -8.0; dy <= 8; dy += 0.4 {
		if dy > 1.0 && dy < 3.0 {
			continue // the too-narrow gap
		}
		for dz := -3.0; dz <= 3; dz += 0.5 {
			depth = append(depth, DepthPoint{P: geom.V3(6, dy, dz), Hit: true})
		}
	}
	for k := 0; k < 40; k++ {
		sys.Step(SensorEpoch{
			Dt: 0.05, GPS: pos, IMUVel: geom.V3(3, 0, 0),
			LidarRange: pos.Z, LidarOK: true,
			Depth: depth, DepthYaw: 0,
		})
	}
	st := sys.Stats()
	if st.PlanFallbacks == 0 {
		t.Errorf("no straight-line fallbacks recorded: %+v", st)
	}
	if st.PlanFallbacks > st.PlanFailures {
		t.Error("fallbacks exceed failures")
	}
}

func TestOffboardDescentTogglesEstimatorCoast(t *testing.T) {
	sys := testSystem(t, V3)
	sys.SetOffboardRelativeDescent(true)
	if !sys.Config().OffboardRelativeDescent {
		t.Fatal("toggle not applied")
	}
}

// TestDetectionTap: the fault-injection hook filters every frame's
// detections before the decision layer — a tap that drops everything
// makes the system blind while the untapped baseline sees the marker.
func TestDetectionTap(t *testing.T) {
	run := func(tap func([]detect.Detection) []detect.Detection) (*System, int) {
		sys := testSystem(t, V1)
		taps := 0
		if tap != nil {
			sys.SetDetectionTap(func(d []detect.Detection) []detect.Detection {
				taps++
				return tap(d)
			})
		}
		cam := sys.Config().Camera
		det := detect.Detection{
			ID:         0, // the test system's target
			Center:     geom.V2(float64(cam.W)/2, float64(cam.H)/2),
			SizePx:     30,
			Confidence: 0.9,
		}
		pos := geom.V3(0, 0, 12)
		vel := geom.Vec3{}
		for i := 0; i < 40; i++ {
			epoch := SensorEpoch{Dt: 0.05, GPS: pos, IMUVel: vel,
				LidarRange: pos.Z, LidarOK: true, BaroAlt: pos.Z}
			if i >= 20 { // let the estimator settle first
				epoch.Detections = []detect.Detection{det}
				epoch.HaveDetections = true
			}
			sys.Step(epoch)
		}
		return sys, taps
	}

	base, _ := run(nil)
	if base.Stats().Detections == 0 {
		t.Fatal("baseline accepted no detections; the tap test would be vacuous")
	}
	blind, taps := run(func([]detect.Detection) []detect.Detection { return nil })
	if taps == 0 {
		t.Fatal("detection tap never invoked")
	}
	if got := blind.Stats().Detections; got != 0 {
		t.Errorf("drop-all tap let %d detections through", got)
	}
}
