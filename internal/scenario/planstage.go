package scenario

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// In-run staged planning.
//
// When Timing.PlanLatencyTicks is k >= 1, path planning runs on its own
// stage (stage.go) like perception: the system's planTo no longer runs
// the planner inline but snapshots (start, goal) into a tick-stamped job,
// the stage goroutine plans against the frozen map, and the control loop
// applies the delivered plan at tick T+k. While the request is in flight
// the follower is stopped, so the vehicle hovers — the paper's
// "trajectory failed to create in time" becomes observable hover time
// instead of a stretched replan cadence.
//
// Determinism: the stage processes requests in submission order, the
// control loop blocks on the delivery tick until the stage catches up, and
// the planner's RNG is drawn once per request in request order, so the
// applied plan sequence is a pure function of (seed, k) at any GOMAXPROCS.
// The map the stage reads is frozen for the duration of a request:
// core.System defers its map writes (local-map recenters and depth-cloud
// insertions) while a request is pending and flushes them, in order, at
// delivery.

// planJob is one planning request.
type planJob struct {
	start, goal geom.Vec3
}

// planResult is one stage delivery. The path is freshly built by the
// planner per request, so there is no buffer ownership to manage.
type planResult struct {
	path []geom.Vec3
	err  error
}

// plan is the planning stage's work function.
func (m *mission) plan(job planJob) planResult {
	path, err := m.sys.PlanOnStage(job.start, job.goal)
	return planResult{path: path, err: err}
}

// submitPlan is the callback core.System invokes (instead of planning
// inline) when the plan stage is enabled. It stamps the request with the
// control loop's current tick; delivery is due k ticks later.
func (m *mission) submitPlan(start, goal geom.Vec3) {
	m.plans.submit(planJob{start: start, goal: goal}, m.curTick)
	if m.rec != nil {
		m.record(obs.Event{Tick: m.curTick, T: m.now, Kind: "plan-request"})
	}
}

// deliverDuePlan applies the plan stamped for tick i, blocking until the
// stage catches up — its duration is the planner stall. A plan due during
// a comms blackout is taken but abandoned (the stack was frozen when it
// would have arrived); the system re-requests on its next live tick.
// Without a plan stage this is one nil check.
func (m *mission) deliverDuePlan(i int, blackout bool) {
	if m.plans == nil || !m.plans.ready(i) {
		return
	}
	r := m.plans.next()
	if blackout {
		m.sys.AbandonPlan()
		if m.rec != nil {
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-abandon"})
		}
		return
	}
	disp := m.sys.DeliverPlan(r.path, r.err)
	if disp == core.PlanStale {
		m.planStaleCnt++
	}
	if m.rec != nil {
		switch disp {
		case core.PlanStale:
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-stale"})
		case core.PlanApplied:
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-deliver", Detail: "applied"})
		case core.PlanFallback:
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-deliver", Detail: "fallback"})
		case core.PlanFailsafe:
			m.record(obs.Event{Tick: i, T: m.now, Kind: "plan-deliver", Detail: "failsafe"})
		}
	}
}
