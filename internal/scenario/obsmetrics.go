package scenario

import "repro/internal/obs"

// The scenario package's slice of the unified metrics plane. The
// scenario_pipeline_* and scenario_planstage_* series are fed once per
// mission, at stage retirement, by concurrent stages only; -metrics dumps
// them and perfbench's traced passes read them. Registration happens once
// at package init; all increments are lock-free and allocation-free, so
// the mission hot path keeps its benchgate budgets.
var (
	mPipeRuns = obs.NewCounter("scenario_pipeline_runs_total", "runs",
		"pipelined-perception missions completed")
	mPipeBatches = obs.NewCounter("scenario_pipeline_batches_total", "jobs",
		"perception jobs executed by pipelined stages")
	mPipeStageNs = obs.NewCounter("scenario_pipeline_stage_busy_ns_total", "ns",
		"summed perception-stage compute across pipelined missions")
	mPipeStallNs = obs.NewCounter("scenario_pipeline_stall_ns_total", "ns",
		"summed control-loop time blocked waiting on a perception delivery")
	mPipeWallNs = obs.NewCounter("scenario_pipeline_wall_ns_total", "ns",
		"summed pipelined-mission wall time")

	mPlanRuns = obs.NewCounter("scenario_planstage_runs_total", "runs",
		"staged-planner missions completed")
	mPlanDelivered = obs.NewCounter("scenario_planstage_delivered_total", "plans",
		"staged plans delivered to the control loop (any disposition)")
	mPlanStale = obs.NewCounter("scenario_planstage_stale_dropped_total", "plans",
		"staged plans dropped at delivery because the decision state changed in flight")
	mPlanStageNs = obs.NewCounter("scenario_planstage_stage_busy_ns_total", "ns",
		"summed planner-stage compute across staged missions")
	mPlanStallNs = obs.NewCounter("scenario_planstage_stall_ns_total", "ns",
		"summed control-loop time blocked waiting on a plan delivery")

	mMissionDuration = obs.NewHistogram("scenario_mission_duration_seconds", "s",
		"simulated mission time at termination, any runner mode",
		[]float64{30, 60, 90, 120, 150, 180, 240, 300})
)
