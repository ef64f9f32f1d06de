package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/vision"
	"repro/internal/worldgen"
)

// Aggregate summarizes a batch of runs into the Table I / Table II rows.
//
// An Aggregate is incremental and mergeable: results stream in through Add
// and partial aggregates (for example per-worker shards of a parallel
// campaign, or per-machine shards of a distributed one) combine with
// Merge. The derived fields (the mean and rate columns) are kept current
// after every mutation, so an Aggregate is always ready to print.
//
// Aggregation is exact and order-independent: the counters are integers
// and the mean accumulators are 128-bit fixed point (see fixed.go), so any
// sharding, merge order, or interleaving of Add and Merge over the same
// result set produces bit-identical aggregates — including the derived
// float columns, which are pure functions of the accumulators. This is
// what lets resumed and distributed campaigns verify their merged
// aggregates against an uninterrupted run with a digest.
type Aggregate struct {
	System string
	Runs   int

	Success     int
	Collision   int
	PoorLanding int

	// MeanLandingError averages over successful landings (the paper's
	// landing-accuracy numbers describe normal landings, not the off-pad
	// outliers that are already counted as poor-landing failures).
	MeanLandingError float64
	// MeanDetectionError averages the per-run detection deviation.
	MeanDetectionError float64
	// FalseNegativeRate is detector misses over marker-visible frames,
	// pooled across runs (Table II).
	FalseNegativeRate float64

	// Dependability rows (fault campaigns). All zero on nominal sweeps —
	// and omitted from the wire encoding — so pre-fault campaign digests
	// are unchanged. FaultRuns counts runs that saw at least one active
	// fault; DegradedTicks and FaultInjections are pooled totals;
	// RecoveredRuns counts runs whose system returned to a nominal state
	// after the last fault window, and MeanTimeToRecover averages their
	// recovery delay (exact fixed-point accumulator, like the other
	// means). AbortCauses tallies the proximate failure of every aborted
	// fault-campaign mission.
	FaultRuns         int
	DegradedTicks     int
	FaultInjections   int
	RecoveredRuns     int
	MeanTimeToRecover float64
	AbortCauses       map[string]int

	// Airspace-deconfliction rows (fleet campaigns). All zero on solo
	// sweeps — and omitted from the wire encoding — so pre-fleet campaign
	// digests are unchanged. FleetRuns counts runs flown as fleets;
	// FleetDrones and FleetSuccesses pool the members flown and the
	// members that landed on-pad; NearMisses and SeparationViolations are
	// pooled pair-event totals; MeanFleetThroughput averages the per-run
	// successful-landings-per-km² capacity metric over the fleet runs
	// (exact fixed-point accumulator, like the other means).
	FleetRuns            int
	FleetDrones          int
	FleetSuccesses       int
	NearMisses           int
	SeparationViolations int
	MeanFleetThroughput  float64

	// Platform rows (Table III's resource summary and §V-C's figures),
	// pooled over the PlatformRuns that carry a Result.Resources summary
	// only, so a SIL aggregate leaves them zero and encodes as before.
	// MeanCPU and MeanMemMB average the per-run means, PeakMemMB is the
	// largest peak, MeanMaxGPSDrift averages the runs' GPS drift maxima
	// (Fig. 5d), and MeanLandedError the landing error of the LandedRuns
	// that touched down, pad or no pad (§V-C's field figure).
	PlatformRuns    int
	MeanCPU         float64
	MeanMemMB       float64
	PeakMemMB       float64
	MeanMaxGPSDrift float64
	LandedRuns      int
	MeanLandedError float64

	// Accumulators behind the derived means above. They stay unexported:
	// consumers read the derived fields, shards combine through Merge, and
	// the JSON codec (codec.go) persists them for distributed merges. The
	// sums are exact fixed point so merges commute bit-identically.
	landSum        fixed128
	landN          int
	detSum         fixed128
	detN           int
	visibleFrames  int
	detectedFrames int
	recSum         fixed128
	thrSum         fixed128
	cpuSum         fixed128
	memSum         fixed128
	driftSum       fixed128
	landedSum      fixed128
}

// NewAggregate returns an empty aggregate row for one system label, ready
// for streaming Add calls.
func NewAggregate(system string) *Aggregate {
	return &Aggregate{System: system}
}

// Add folds one result into the aggregate, keeping the derived columns
// current. Adding results one by one in order is equivalent to Summarize
// over the same slice.
func (a *Aggregate) Add(r Result) {
	a.Runs++
	switch r.Outcome {
	case Success:
		a.Success++
	case FailureCollision:
		a.Collision++
	case FailurePoorLanding:
		a.PoorLanding++
	}
	if r.Outcome == Success && !math.IsNaN(r.LandingError) {
		a.landSum = a.landSum.add(fixedFromFloat(r.LandingError))
		a.landN++
	}
	if !math.IsNaN(r.DetectionError) {
		a.detSum = a.detSum.add(fixedFromFloat(r.DetectionError))
		a.detN++
	}
	a.visibleFrames += r.MarkerVisibleFrames
	a.detectedFrames += r.MarkerDetectedFrames
	if r.DegradedTicks > 0 || r.FaultInjections > 0 {
		a.FaultRuns++
		a.DegradedTicks += r.DegradedTicks
		a.FaultInjections += r.FaultInjections
		if r.Recovered {
			a.RecoveredRuns++
			a.recSum = a.recSum.add(fixedFromFloat(r.RecoverySeconds))
		}
		if r.AbortCause != "" {
			if a.AbortCauses == nil {
				a.AbortCauses = make(map[string]int)
			}
			a.AbortCauses[r.AbortCause]++
		}
	}
	if r.FleetSize > 0 {
		a.FleetRuns++
		a.FleetDrones += r.FleetSize
		a.FleetSuccesses += r.FleetSuccesses
		a.NearMisses += r.NearMisses
		a.SeparationViolations += r.SeparationViolations
		a.thrSum = a.thrSum.add(fixedFromFloat(r.FleetThroughput))
	}
	if res := r.Resources; res != nil {
		a.PlatformRuns++
		a.cpuSum = a.cpuSum.add(fixedFromFloat(res.MeanCPU))
		a.memSum = a.memSum.add(fixedFromFloat(res.MeanMemMB))
		a.PeakMemMB = max(a.PeakMemMB, res.PeakMemMB)
		a.driftSum = a.driftSum.add(fixedFromFloat(r.MaxGPSDrift))
		if r.Landed && !math.IsNaN(r.LandingError) {
			a.LandedRuns++
			a.landedSum = a.landedSum.add(fixedFromFloat(r.LandingError))
		}
	}
	a.refresh()
}

// Merge folds another aggregate (typically a per-worker or per-machine
// shard of the same campaign) into a. Counters and fixed-point accumulator
// sums combine exactly, so a merge of shards is bit-identical to a
// Summarize of the concatenated results in any order. The receiver keeps
// its System label.
func (a *Aggregate) Merge(b Aggregate) {
	a.Runs += b.Runs
	a.Success += b.Success
	a.Collision += b.Collision
	a.PoorLanding += b.PoorLanding
	a.landSum = a.landSum.add(b.landSum)
	a.landN += b.landN
	a.detSum = a.detSum.add(b.detSum)
	a.detN += b.detN
	a.visibleFrames += b.visibleFrames
	a.detectedFrames += b.detectedFrames
	a.FaultRuns += b.FaultRuns
	a.DegradedTicks += b.DegradedTicks
	a.FaultInjections += b.FaultInjections
	a.RecoveredRuns += b.RecoveredRuns
	a.recSum = a.recSum.add(b.recSum)
	a.FleetRuns += b.FleetRuns
	a.FleetDrones += b.FleetDrones
	a.FleetSuccesses += b.FleetSuccesses
	a.NearMisses += b.NearMisses
	a.SeparationViolations += b.SeparationViolations
	a.thrSum = a.thrSum.add(b.thrSum)
	a.PlatformRuns += b.PlatformRuns
	a.cpuSum = a.cpuSum.add(b.cpuSum)
	a.memSum = a.memSum.add(b.memSum)
	a.PeakMemMB = max(a.PeakMemMB, b.PeakMemMB)
	a.driftSum = a.driftSum.add(b.driftSum)
	a.LandedRuns += b.LandedRuns
	a.landedSum = a.landedSum.add(b.landedSum)
	if len(b.AbortCauses) > 0 {
		if a.AbortCauses == nil {
			a.AbortCauses = make(map[string]int, len(b.AbortCauses))
		}
		for cause, n := range b.AbortCauses {
			a.AbortCauses[cause] += n
		}
	}
	a.refresh()
}

// refresh recomputes the derived columns from the accumulators.
func (a *Aggregate) refresh() {
	a.MeanLandingError = 0
	if a.landN > 0 {
		a.MeanLandingError = a.landSum.float() / float64(a.landN)
	}
	a.MeanDetectionError = 0
	if a.detN > 0 {
		a.MeanDetectionError = a.detSum.float() / float64(a.detN)
	}
	a.FalseNegativeRate = 0
	if a.visibleFrames > 0 {
		a.FalseNegativeRate = float64(a.visibleFrames-a.detectedFrames) / float64(a.visibleFrames)
	}
	a.MeanTimeToRecover = 0
	if a.RecoveredRuns > 0 {
		a.MeanTimeToRecover = a.recSum.float() / float64(a.RecoveredRuns)
	}
	a.MeanFleetThroughput = 0
	if a.FleetRuns > 0 {
		a.MeanFleetThroughput = a.thrSum.float() / float64(a.FleetRuns)
	}
	a.MeanCPU, a.MeanMemMB, a.MeanMaxGPSDrift = 0, 0, 0
	if a.PlatformRuns > 0 {
		a.MeanCPU = a.cpuSum.float() / float64(a.PlatformRuns)
		a.MeanMemMB = a.memSum.float() / float64(a.PlatformRuns)
		a.MeanMaxGPSDrift = a.driftSum.float() / float64(a.PlatformRuns)
	}
	a.MeanLandedError = 0
	if a.LandedRuns > 0 {
		a.MeanLandedError = a.landedSum.float() / float64(a.LandedRuns)
	}
}

// SuccessRate returns the Table I success percentage.
func (a Aggregate) SuccessRate() float64 { return pct(a.Success, a.Runs) }

// CollisionRate returns the Table I collision-failure percentage.
func (a Aggregate) CollisionRate() float64 { return pct(a.Collision, a.Runs) }

// PoorLandingRate returns the Table I poor-landing-failure percentage.
func (a Aggregate) PoorLandingRate() float64 { return pct(a.PoorLanding, a.Runs) }

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// Summarize folds results into an aggregate row.
func Summarize(system string, results []Result) Aggregate {
	a := NewAggregate(system)
	for _, r := range results {
		a.Add(r)
	}
	return *a
}

// DependabilityString renders the fault-campaign row: degraded exposure,
// recovery behavior, and the abort-cause tally. Empty for nominal sweeps.
func (a Aggregate) DependabilityString() string {
	if a.FaultRuns == 0 {
		return ""
	}
	s := fmt.Sprintf("%-8s faulted=%d/%d injections=%d degraded-ticks=%d recovered=%d",
		a.System, a.FaultRuns, a.Runs, a.FaultInjections, a.DegradedTicks, a.RecoveredRuns)
	if a.RecoveredRuns > 0 {
		s += fmt.Sprintf(" mean-time-to-recover=%.1fs", a.MeanTimeToRecover)
	}
	if len(a.AbortCauses) > 0 {
		causes := make([]string, 0, len(a.AbortCauses))
		for cause := range a.AbortCauses {
			causes = append(causes, cause)
		}
		sort.Strings(causes)
		parts := make([]string, 0, len(causes))
		for _, cause := range causes {
			parts = append(parts, fmt.Sprintf("%s x%d", cause, a.AbortCauses[cause]))
		}
		s += " aborts: " + strings.Join(parts, "; ")
	}
	return s
}

// FleetString renders the airspace-deconfliction row: fleet exposure,
// pair events, and airspace capacity. Empty for solo sweeps.
func (a Aggregate) FleetString() string {
	if a.FleetRuns == 0 {
		return ""
	}
	return fmt.Sprintf("%-8s fleets=%d/%d drones=%d fleet-success=%d near-misses=%d sep-violations=%d throughput=%.1f/km2",
		a.System, a.FleetRuns, a.Runs, a.FleetDrones, a.FleetSuccesses,
		a.NearMisses, a.SeparationViolations, a.MeanFleetThroughput)
}

// String renders one Table I row.
func (a Aggregate) String() string {
	return fmt.Sprintf("%-8s runs=%3d success=%6.2f%% collision=%6.2f%% poor-landing=%6.2f%% FNR=%5.2f%% land-err=%.2fm",
		a.System, a.Runs, a.SuccessRate(), a.CollisionRate(), a.PoorLandingRate(),
		100*a.FalseNegativeRate, a.MeanLandingError)
}

// BuildSystem instantiates one generation for a scenario. Seeds separate
// planner randomness per run.
func BuildSystem(gen core.Generation, sc *worldgen.Scenario, seed int64) (*core.System, error) {
	dict := vision.DefaultDictionary()
	// The GPS goal handed to the system is at ground level; the system
	// chooses its own altitudes.
	switch gen {
	case core.V1:
		return core.NewV1(sc.TargetID, sc.GPSGoal, dict)
	case core.V2:
		return core.NewV2(sc.TargetID, sc.GPSGoal, dict, seed)
	case core.V3:
		return core.NewV3(sc.TargetID, sc.GPSGoal, dict, seed)
	default:
		return nil, fmt.Errorf("scenario: unknown generation %d", gen)
	}
}

// The deprecated sequential shims Batch/BatchScenarios that used to live
// here were removed once every caller migrated to the campaign engine:
// describe a sweep as a campaign.Spec and run it through campaign.Execute.
// The reference ordering they provided survives as RunGridCell driven in
// nested-loop order (what the campaign determinism tests do directly).
