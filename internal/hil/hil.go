// Package hil models the hardware-in-the-loop deployment of RQ2: the
// landing system's modules run under a Jetson-Nano-class compute budget
// instead of a desktop. Module costs stretch the perception and replanning
// cadences and add sense-to-act latency; the paper attributes the HIL
// success-rate drop (Table III) to exactly this — "trajectories failed to
// create in time when the drone was heading towards a newly discovered
// obstacle".
//
// The package also builds the platform-cost value (Platform) a hardware
// run charges its module work to, from which the run's own Result carries
// the Table III / Fig. 7 CPU and memory figures.
package hil

import (
	"math"

	"repro/internal/scenario"
)

// Profile describes a compute platform.
type Profile struct {
	Name string
	// Cores and CoreGHz set the aggregate compute capacity.
	Cores   int
	CoreGHz float64
	// MemTotalMB is usable RAM (the paper reports 2.9 GB available of the
	// Nano's 4 GB after the OS holds back CMA/carveout).
	MemTotalMB int
	// MemBaseMB is the resident baseline: OS, ROS stack, drivers.
	MemBaseMB int
	// MemModelMB is the detector engine residency (TensorRT for the Nano).
	MemModelMB int
	// Efficiency derates usable CPU for scheduler and I/O overhead.
	Efficiency float64
}

// JetsonNanoMAXN is the Nano in its 10 W MAXN mode, as the paper's HIL
// experiments configure it (§IV-C-2).
func JetsonNanoMAXN() Profile {
	return Profile{
		Name:       "jetson-nano-maxn",
		Cores:      4,
		CoreGHz:    1.43,
		MemTotalMB: 2900,
		MemBaseMB:  1150,
		MemModelMB: 820,
		Efficiency: 0.82,
	}
}

// JetsonNano5W is the throttled 5 W mode (2 cores, lower clocks) used in
// the power-budget ablation.
func JetsonNano5W() Profile {
	return Profile{
		Name:       "jetson-nano-5w",
		Cores:      2,
		CoreGHz:    0.92,
		MemTotalMB: 2900,
		MemBaseMB:  1150,
		MemModelMB: 820,
		Efficiency: 0.82,
	}
}

// DesktopSIL is the reference desktop used by the SIL experiments: fast
// enough that module costs never stretch cadences.
func DesktopSIL() Profile {
	return Profile{
		Name:       "desktop-sil",
		Cores:      16,
		CoreGHz:    3.6,
		MemTotalMB: 64000,
		MemBaseMB:  4000,
		MemModelMB: 900,
		Efficiency: 0.92,
	}
}

// refGHz is the clock the module costs are quoted at: one Jetson Nano
// MAXN core.
const refGHz = 1.43

// ModuleCosts are per-invocation CPU costs in milliseconds on one
// reference (Nano MAXN) core; actual cost scales inversely with clock.
type ModuleCosts struct {
	// DetectMS is one detector inference (TensorRT-optimized TPH-YOLO
	// equivalent).
	DetectMS float64
	// DepthInsertMS integrates one depth capture into the map.
	DepthInsertMS float64
	// PlanMS is one full planner invocation.
	PlanMS float64
	// ControlMS is the estimator + decision + command pipeline per tick.
	ControlMS float64
	// CameraFeedMS is the per-second cost of camera acquisition and
	// transport; zero under HIL (the simulator host feeds frames), and
	// substantial in the real-world profile (§V-C observes exactly this
	// difference in Fig. 7).
	CameraFeedMS float64
	// StackOverheadMS is the per-second middleware cost: ROS transport,
	// serialization, logging — substantial on an edge board.
	StackOverheadMS float64
}

// NanoCosts returns the measured-equivalent module costs for the MLS-V3
// stack after the TensorRT conversion the paper performs.
func NanoCosts() ModuleCosts {
	return ModuleCosts{
		DetectMS:        380,
		DepthInsertMS:   130,
		PlanMS:          1100,
		ControlMS:       6,
		CameraFeedMS:    0,
		StackOverheadMS: 1100,
	}
}

// FieldCosts adds the real-world camera pipeline load on top of NanoCosts
// (the RAM/CPU delta the paper observed between HIL and the field).
func FieldCosts() ModuleCosts {
	c := NanoCosts()
	c.CameraFeedMS = 520  // per second: two RealSense streams + encode
	c.DepthInsertMS = 150 // real point clouds are denser and noisier
	return c
}

// Plan derives the achievable module cadences on a profile. The desired
// rates are the SIL-native ones; each module's achieved period is its
// desired period stretched by the compute backlog once aggregate demand
// exceeds supply.
type Plan struct {
	Timing scenario.Timing
	// ReplanInterval is the achievable trajectory-revalidation period for
	// the decision module.
	ReplanInterval float64
	// GuardInterval is the achievable safety-monitor period (0 = every
	// tick on an unconstrained platform).
	GuardInterval float64
	// CPUDemand is the fraction of platform capacity the stack wants;
	// values above ~1 mean saturation (the paper's "CPU processing power
	// is the primary bottleneck").
	CPUDemand float64
}

// DerivePlan computes the deployment plan of running the landing stack on
// the profile.
func DerivePlan(p Profile, costs ModuleCosts) Plan {
	sil := scenario.SILTiming()

	// Capacity: core-milliseconds per wall-second in reference-core units.
	capacity := float64(p.Cores) * (p.CoreGHz / refGHz) * 1000 * p.Efficiency

	// Demand at SIL-native rates.
	detectHz := 1 / sil.DetectPeriod
	depthHz := 1 / sil.DepthPeriod
	controlHz := 1 / sil.Dt
	replanHz := 1.0 / 0.6 // core's native revalidation cadence
	demand := costs.DetectMS*detectHz +
		costs.DepthInsertMS*depthHz +
		costs.ControlMS*controlHz +
		costs.PlanMS*replanHz*0.5 + // planner runs on demand, ~half the checks
		costs.CameraFeedMS +
		costs.StackOverheadMS
	load := demand / capacity

	plan := Plan{Timing: sil, ReplanInterval: 0.6, GuardInterval: 0, CPUDemand: load}
	if load <= 0.75 {
		// Comfortable headroom: run native rates with one tick of
		// actuation latency for the pipeline.
		plan.Timing.CommandLatencyTicks = 1
		return plan
	}

	// Saturated: stretch the elastic cadences proportionally to the
	// overload, keeping the control loop itself at rate (it runs on the
	// flight controller side).
	stretch := load / 0.75
	plan.Timing.DetectPeriod = sil.DetectPeriod * stretch
	plan.Timing.DepthPeriod = sil.DepthPeriod * stretch
	plan.ReplanInterval = 0.6 * stretch * 1.4 // planning starves worst (biggest bursts)
	// The safety monitor shares the starved perception loop: it degrades
	// from per-tick to roughly the stretched map-update cadence.
	plan.GuardInterval = sil.DepthPeriod * stretch * 2
	plan.Timing.CommandLatencyTicks = int(math.Ceil(stretch))
	if plan.Timing.CommandLatencyTicks > 8 {
		plan.Timing.CommandLatencyTicks = 8
	}
	return plan
}

// PerceptionStageTicks quantizes the pipelined perception stage's
// per-batch compute into whole control ticks on a profile: one detector
// inference plus one depth-map integration, run back to back on the
// stage's core at the profile's clock and efficiency. This is the k of
// scenario.Timing.PipelineLatencyTicks — results captured at tick T land
// at tick T+k because that is how long the stage's compute occupies its
// core, which is exactly the sense-to-act latency the paper measured on
// the Nano. With NanoCosts, the desktop's ~220 ms batch quantizes to 5
// ticks of the 50 ms control period; the Nano MAXN's ~620 ms to 13 and
// the throttled 5 W mode's to 20.
func PerceptionStageTicks(p Profile, costs ModuleCosts, t scenario.Timing) int {
	if t.Dt <= 0 {
		t = scenario.SILTiming()
	}
	// Wall milliseconds of one batch on one of this profile's cores.
	stageMS := (costs.DetectMS + costs.DepthInsertMS) * (refGHz / p.CoreGHz)
	if p.Efficiency > 0 {
		stageMS /= p.Efficiency
	}
	k := int(math.Ceil(stageMS / (t.Dt * 1000)))
	if k < 1 {
		k = 1
	}
	return k
}

// DerivePipelinedPlan is DerivePlan for the staged runner: instead of
// injecting the platform's sense-to-act delay as CommandLatencyTicks, the
// plan switches the pipeline on and lets the latency emerge from measured
// stage cost (PerceptionStageTicks). Actuation keeps a single transport
// tick; everything else the synthetic latency used to stand in for —
// inference time, map integration, queueing — is now carried by the
// perception stage's tick-stamped delivery itself.
func DerivePipelinedPlan(p Profile, costs ModuleCosts) Plan {
	plan := DerivePlan(p, costs)
	plan.Timing.Pipeline = scenario.PipelineOn
	plan.Timing.PipelineLatencyTicks = PerceptionStageTicks(p, costs, plan.Timing)
	plan.Timing.CommandLatencyTicks = 1
	return plan
}

// Platform is the cost value a mission on profile p charges its module
// work to. The real camera pipeline holds several frames in flight, so
// the field profile buffers more memory.
func Platform(p Profile, costs ModuleCosts) *scenario.Platform {
	buffers := 150.0
	if costs.CameraFeedMS > 0 {
		buffers = 380
	}
	return &scenario.Platform{
		Cores:       p.Cores,
		CoreSpeed:   p.CoreGHz / refGHz,
		DetectMS:    costs.DetectMS,
		DepthMS:     costs.DepthInsertMS,
		PlanMS:      costs.PlanMS,
		ControlMS:   costs.ControlMS,
		FeedMS:      costs.CameraFeedMS + costs.StackOverheadMS,
		MemBaseMB:   float64(p.MemBaseMB + p.MemModelMB),
		MemBufferMB: buffers,
	}
}
