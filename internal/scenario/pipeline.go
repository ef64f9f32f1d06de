package scenario

import (
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Perception handoff.
//
// The deployed stack runs perception — the depth-camera capture and the
// marker detector — as its own ROS nodes, so the vehicle acts on
// perception that is some ticks old. The mission models that with one
// loop: when a capture is due, the control loop snapshots the vehicle
// pose into a tick-stamped job for the perception stage (stage.go), and
// the result applies to the control epoch at tick T+k. Under PipelineOn
// the stage runs on its own goroutine, concurrent with the control loop,
// and the sense-to-act delay *emerges* from stage cost (see
// hil.DerivePipelinedPlan) instead of being injected. Under PipelineOff
// the same work function runs on the control loop at submit time and
// delivers within the same tick (k = 0): the historical inline order.
//
// Determinism: every stochastic input of the perception side — the depth
// camera's noise stream, the color camera's photometric stream — is a
// per-concern RNG owned by that side alone, and jobs are processed in
// submission order. The applied epoch sequence is therefore a pure
// function of (seed, k) at any GOMAXPROCS, and at k == 0 the concurrent
// stage is bit-identical to PipelineOff — the oracle the pipeline tests
// use.

// PipelineMode selects where perception executes relative to the control
// loop.
type PipelineMode int

const (
	// PipelineOff runs perception on the control-loop goroutine, delivered
	// in the tick it was captured — bit-identical to the pre-pipeline
	// engine (the committed golden digest guards this).
	PipelineOff PipelineMode = iota
	// PipelineOn runs perception on a concurrent stage with tick-stamped
	// delivery: results captured at tick T apply at tick T+k, where k is
	// Timing.PipelineLatencyTicks.
	PipelineOn
)

// String implements fmt.Stringer.
func (m PipelineMode) String() string {
	switch m {
	case PipelineOff:
		return "off"
	case PipelineOn:
		return "on"
	default:
		return "unknown"
	}
}

// perceptionJob is the tick-stamped snapshot the control loop hands the
// perception stage. It carries ground-truth pose by design: the stage
// plays the role of the physical sensors, which always see the true
// vehicle state; the system under test still only sees sensor outputs.
type perceptionJob struct {
	tick int
	// now is the mission time of the capture tick; the stage needs it for
	// the fault-injection window queries (it must not read the control
	// loop's clock, and re-deriving it from tick would not reproduce the
	// control loop's additive accumulation bit for bit).
	now      float64
	pos      geom.Vec3
	yaw      float64
	speed    float64
	depthDue bool
	frameDue bool
}

// perceptionResult is one stage delivery. Depth points live in the
// mission's buffer ring and stay valid for ring-size further captures,
// which the in-flight bound guarantees exceeds the apply distance.
type perceptionResult struct {
	tick          int
	depthPts      []core.DepthPoint
	depthYaw      float64
	haveDepth     bool
	dets          []detect.Detection
	frameYaw      float64
	haveFrame     bool
	markerVisible bool
}

// perceive is the perception work function: captures through the fault
// taps, then inference, for one job. It touches only perception-side
// state (see mission), so it may run on the stage goroutine.
func (m *mission) perceive(job perceptionJob) perceptionResult {
	res := perceptionResult{tick: job.tick}
	if job.depthDue {
		if returns, ok := m.captureDepth(job.pos, job.yaw, job.now); ok {
			// The camera owns returns, so copy them out before the next
			// capture — into a rotating ring, so nothing allocates per frame.
			buf := m.depthRing[m.ringIdx]
			if cap(buf) < len(returns) {
				buf = make([]core.DepthPoint, len(returns))
			}
			buf = buf[:len(returns)]
			for i, rr := range returns {
				buf[i] = core.DepthPoint{P: rr.Point, Hit: rr.Hit}
			}
			m.depthRing[m.ringIdx] = buf
			m.ringIdx = (m.ringIdx + 1) % len(m.depthRing)
			res.depthPts = buf
			res.depthYaw = job.yaw
			res.haveDepth = true
		}
	}
	if job.frameDue {
		if frame, ok := m.captureFrame(job.pos, job.yaw, job.speed, job.now); ok {
			// Inference runs here, so the camera's reused frame buffer
			// never has to outlive this job.
			res.dets = m.sys.Detector().Detect(frame)
			res.frameYaw = job.yaw
			res.haveFrame = true
			res.markerVisible = markerInView(m.w, m.sc, job.pos, job.yaw)
		}
	}
	return res
}

// perceptionDue reports whether the mission's next tick captures depth
// or a camera frame (a blackout aside): the ticks that carry its
// perception cost. It reads the clocks submitPerception will compare.
func (m *mission) perceptionDue() bool {
	now := m.now + m.t.Dt
	return now >= m.nextDepth || now >= m.nextDetect
}

// submitPerception hands the perception stage a job for the sensors due
// at tick i, if any. Capture is recorded before fault dropouts apply;
// apply records what actually arrived.
func (m *mission) submitPerception(i int) {
	depthDue := m.now >= m.nextDepth
	frameDue := m.now >= m.nextDetect
	if !depthDue && !frameDue {
		return
	}
	if depthDue {
		m.nextDepth = m.now + m.t.DepthPeriod
	}
	if frameDue {
		m.nextDetect = m.now + m.t.DetectPeriod
	}
	m.percept.submit(perceptionJob{
		tick:     i,
		now:      m.now,
		pos:      m.drone.Pos,
		yaw:      m.drone.Yaw,
		speed:    m.drone.Speed(),
		depthDue: depthDue,
		frameDue: frameDue,
	}, i)
	if m.rec != nil {
		m.record(obs.Event{Tick: i, T: m.now, Kind: "capture", Detail: payloadDetail(depthDue, frameDue)})
	}
}

// applyPerception applies the perception result stamped for tick i to
// the epoch, blocking until the stage has computed it, and reports
// whether the applied frame had the true marker in view. A result due
// during a blackout is taken but discarded (the link was down when it
// would have arrived), keeping the queue in lockstep.
func (m *mission) applyPerception(i int, blackout bool, epoch *core.SensorEpoch) bool {
	if !m.percept.ready(i) {
		return false
	}
	r := m.percept.next()
	if blackout {
		return false
	}
	// Stamp the delivery delay so the system projects the capture with
	// its pose belief from the capture tick.
	epoch.LagTicks = i - r.tick
	if r.haveDepth {
		epoch.Depth = r.depthPts
		epoch.DepthYaw = r.depthYaw
	}
	if r.haveFrame {
		epoch.Detections = r.dets
		epoch.HaveDetections = true
		epoch.FrameYaw = r.frameYaw
		if r.markerVisible {
			m.res.MarkerVisibleFrames++
		}
	}
	if m.rec != nil {
		// The lag is 0 (omitted from the JSON) for a same-tick handoff.
		m.record(obs.Event{Tick: i, T: m.now, Kind: "apply",
			Detail: payloadDetail(r.haveDepth, r.haveFrame), Value: float64(i - r.tick)})
	}
	return r.markerVisible
}
