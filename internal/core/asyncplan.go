package core

import (
	"repro/internal/control"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/planning"
)

// Staged planning.
//
// The scenario runner's plan stage (scenario/planstage.go) runs the
// planner concurrently with the control loop. The System's side of that
// contract lives here: when a submit hook is installed, planTo becomes a
// request — it stops the follower (the vehicle hovers), snapshots the goal
// and the decision state, and hands (start, goal) to the runner. The
// runner calls PlanOnStage from the stage goroutine and DeliverPlan from
// the control loop at the tick-stamped delivery tick.
//
// Map freeze: the stage plans against s.deps.Map while the control loop
// keeps stepping. Occupancy reads (Blocked, PathClear) are safe
// concurrently, but inserts are not — so while a request is pending,
// integrateDepth defers its local-map recenters and cloud insertions into
// an ordered op list that DeliverPlan/AbandonPlan flush before anything
// else. The planner therefore sees exactly the map that existed at
// request time, and the map afterwards is byte-for-byte what inline
// integration would have produced, just k ticks later.

// deferredMapOp is one postponed map mutation: either a local-map recenter
// or a world-frame cloud insertion. Buffers are recycled across requests.
type deferredMapOp struct {
	recenter bool
	pos      geom.Vec3
	ends     []geom.Vec3
	hits     []bool
}

// EnablePlanStage installs the staged-planning submit hook: planTo stops
// planning inline and instead requests a plan through submit; the runner
// answers via DeliverPlan (or AbandonPlan). Used by the scenario runner
// when Timing.PlanLatencyTicks >= 1.
func (s *System) EnablePlanStage(submit func(start, goal geom.Vec3)) {
	s.planSubmit = submit
}

// DisablePlanStage detaches the submit hook and discards any pending
// request after flushing its deferred map writes, returning the System to
// inline planning.
func (s *System) DisablePlanStage() {
	s.planSubmit = nil
	if s.planPending {
		s.planPending = false
		s.flushDeferredMapOps()
	}
}

// PlanPending reports whether a staged plan request is in flight.
func (s *System) PlanPending() bool { return s.planPending }

// PlanOnStage runs the planner for a staged request. It is called by the
// stage goroutine — never the control loop — and only while a request is
// pending, so the map it reads is frozen (see the package comment above).
func (s *System) PlanOnStage(start, goal geom.Vec3) ([]geom.Vec3, error) {
	return s.deps.Planner.Plan(start, goal, s.deps.Map)
}

// requestPlan is planTo's staged counterpart: at most one request in
// flight; repeat calls while pending keep hovering. Returns true — a
// staged request never enters failsafe at request time; a planning failure
// surfaces at delivery.
func (s *System) requestPlan(est control.Estimate, goal geom.Vec3) bool {
	if s.planPending {
		return true
	}
	s.lastReplanT = s.t
	s.planPending = true
	s.planGoal = goal
	s.planState = s.state
	s.fol.Stop()
	s.planSubmit(est.Pos, goal)
	return true
}

// PlanDelivery is DeliverPlan's disposition: what became of a staged
// plan when the control loop delivered it. The scenario flight recorder
// maps it onto trace events; callers that don't care ignore it.
type PlanDelivery int

// Plan delivery dispositions.
const (
	// PlanIdle: no request was pending (delivery was a no-op).
	PlanIdle PlanDelivery = iota
	// PlanApplied: the planned path was accepted and handed to the
	// trajectory follower.
	PlanApplied
	// PlanStale: the decision layer changed state while the plan was in
	// flight; the plan was dropped.
	PlanStale
	// PlanFallback: planning failed and the straight-line fallback path
	// was applied instead.
	PlanFallback
	// PlanFailsafe: planning failed and the generation's fallback
	// behavior entered failsafe.
	PlanFailsafe
)

// DeliverPlan completes a staged request: deferred map writes flush first,
// then the delivered path goes through acceptPlan, the acceptance logic
// inline planTo uses — the bbox safety validation, the generation's
// fallback behavior — unless the decision layer changed state while the
// plan was in flight, in which case the plan is stale and dropped (the
// active state re-requests on its next tick). The returned disposition
// says which of those paths the delivery took.
func (s *System) DeliverPlan(path []geom.Vec3, err error) PlanDelivery {
	if !s.planPending {
		return PlanIdle
	}
	s.planPending = false
	s.flushDeferredMapOps()
	if s.state != s.planState {
		return PlanStale
	}
	return s.acceptPlan(path, err, s.est.Current().Pos, s.planGoal)
}

// AbandonPlan discards a pending request without applying its result (the
// runner uses it when the delivery tick lands in a comms blackout). The
// deferred map writes still flush — they are sensor history, not plan
// output.
func (s *System) AbandonPlan() {
	if !s.planPending {
		return
	}
	s.planPending = false
	s.flushDeferredMapOps()
}

// deferMapWrites queues integrateDepth's work while a plan is in flight,
// recycling op buffers so steady-state requests do not allocate.
func (s *System) deferMapWrites(in SensorEpoch, est control.Estimate) {
	if s.deps.LocalMap != nil {
		op := s.nextDeferredOp()
		op.recenter = true
		op.pos = est.Pos
	}
	if len(in.Depth) == 0 {
		return
	}
	op := s.nextDeferredOp()
	op.recenter = false
	// Transform with the capture-tick pose belief, like integrateDepth.
	op.pos = s.pastEstimate(in.LagTicks).Pos
	op.ends, op.hits = s.worldCloud(op.ends[:0], op.hits[:0], in, op.pos)
}

// nextCloudParity advances the capture counter and returns the miss-ray
// phase to keep this capture (decimation is 2x: miss ray i integrates when
// i's low bit matches the phase), or -1 when fast insertion is off and
// every ray integrates. The phase alternates per capture so dropped fan
// columns fill on the next cycle. Captures are consumed in tick order on
// the mission loop, so the alternation is deterministic.
func (s *System) nextCloudParity() int {
	if !s.fastInsert {
		return -1
	}
	s.cloudSeq++
	return s.cloudSeq & 1
}

// nextDeferredOp extends the op list by one, reusing retired entries (and
// their slice capacity) from earlier requests.
func (s *System) nextDeferredOp() *deferredMapOp {
	n := len(s.defOps)
	if cap(s.defOps) > n {
		s.defOps = s.defOps[:n+1]
	} else {
		s.defOps = append(s.defOps, deferredMapOp{})
	}
	return &s.defOps[n]
}

// flushDeferredMapOps applies the postponed map mutations in arrival order.
func (s *System) flushDeferredMapOps() {
	for i := range s.defOps {
		op := &s.defOps[i]
		if op.recenter {
			s.deps.LocalMap.Recenter(op.pos)
		} else {
			s.deps.Map.InsertCloud(op.pos, op.ends, op.hits)
		}
	}
	s.defOps = s.defOps[:0]
}

// EnableFastKernels switches every dependency that ships a fast kernel
// into fast mode: the learned detector's coarse-to-fine NCC prefilter, the
// RRT* planner's deduplicated collision stepping, and bundled depth-cloud
// insertion (miss-ray decimation, see fastInsert). Dependencies without a
// fast path (classical detector, A*, straight-line) run unchanged — fast
// mode degrades to exact per module.
func (s *System) EnableFastKernels() {
	if d, ok := s.deps.Detector.(*detect.Learned); ok {
		d.EnableFast()
	}
	if p, ok := s.deps.Planner.(*planning.RRTStar); ok {
		p.Fast = true
	}
	s.fastInsert = true
}
