package core

import (
	"repro/internal/detect"
	"repro/internal/geom"
)

// State is the decision-module state of Fig. 2.
type State int

// States. Transit covers "traverse trajectory toward the initial GPS
// estimate"; the remaining states follow the paper's figure.
const (
	StateTransit State = iota + 1
	StateSearch
	StateValidate
	StateLanding
	StateFinalDescent
	StateLanded
	StateFailsafe
	StateAborted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateTransit:
		return "transit"
	case StateSearch:
		return "search"
	case StateValidate:
		return "validate"
	case StateLanding:
		return "landing"
	case StateFinalDescent:
		return "final-descent"
	case StateLanded:
		return "landed"
	case StateFailsafe:
		return "failsafe"
	case StateAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// Terminal reports whether the mission has ended in this state.
func (s State) Terminal() bool { return s == StateLanded || s == StateAborted }

// DepthPoint is one depth-camera return in BODY frame (x forward, y left,
// z up). Hit=false marks a max-range miss (free space along the ray).
type DepthPoint struct {
	P   geom.Vec3
	Hit bool
}

// SensorEpoch is everything the system receives in one control tick.
// Detections and Depth are empty except on their capture cadences.
type SensorEpoch struct {
	Dt float64

	GPS        geom.Vec3
	IMUVel     geom.Vec3
	LidarRange float64
	LidarOK    bool
	BaroAlt    float64

	// FrameYaw is the vehicle yaw when the downward camera frame behind
	// Detections was captured (the camera rotates with the airframe).
	FrameYaw float64

	// Depth is the forward depth capture, when made this tick.
	Depth []DepthPoint
	// DepthYaw is the vehicle yaw at capture time.
	DepthYaw float64

	// Detections, when HaveDetections is set, is the detector output for
	// the camera frame delivered this epoch. The caller runs inference —
	// the scenario runner's perception stage does, through
	// System.Detector — so Step never calls the detector itself.
	// HaveDetections tells a frame with no detections from no frame.
	Detections     []detect.Detection
	HaveDetections bool

	// LagTicks is how many ticks ago this epoch's frame and depth capture
	// were taken (0: this tick — the inline runner). A pipelined runner
	// stamps its delivery delay here so the system can project the capture
	// with its pose estimate FROM the capture tick (a TF-style lookup into
	// its pose history) instead of the delivery tick's — the vehicle's
	// drift over the stage latency would otherwise mislocate every
	// detection and depth return by drift x latency.
	LagTicks int
}

// Command is the system's output for one tick.
type Command struct {
	// Vel is the velocity setpoint handed to the flight controller.
	Vel geom.Vec3
	// Yaw is the desired heading (depth camera pointing).
	Yaw float64
	// WantLand requests touchdown (final descent contact).
	WantLand bool
}

// Event is one decision-module transition, for telemetry and debugging.
type Event struct {
	T     float64
	From  State
	To    State
	Cause string
}

// Stats aggregates per-run decision metrics the experiments report.
type Stats struct {
	// Detections is the number of accepted target detections.
	Detections int
	// MarkerPosError accumulates |estimated marker - detection mean| per
	// accepted detection against the final estimate; the SIL experiments
	// report its mean as "deviation between detected and actual marker
	// positions" using ground truth supplied by the harness.
	DetectionPositions []geom.Vec3
	// Validations counts validation episodes; ValidationsOK those passed.
	Validations   int
	ValidationsOK int
	// Aborts counts landing aborts (recoverable failures).
	Aborts int
	// Failsafes counts failsafe activations.
	Failsafes int
	// PlanFailures counts planner errors; PlanFallbacks counts the unsafe
	// straight-line substitutions (V2).
	PlanFailures  int
	PlanFallbacks int
	// Replans counts planned trajectories.
	Replans int
}
