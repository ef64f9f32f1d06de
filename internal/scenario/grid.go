package scenario

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/worldgen"
)

// The benchmark grid: the paper's evaluation is a deterministic product of
// (map, scenario, repetition, generation) cells. Everything a cell needs —
// the world, the system under test, and every noise stream of the run — is
// derived from its indices, which is what makes the grid embarrassingly
// parallel: cells share no state and can execute in any order on any
// worker while reproducing the sequential engine bit for bit.
//
// This file holds the per-cell primitive the campaign engine executes,
// plus the RNG stream-splitting scheme that keeps per-concern noise
// sources independent.

// GridSeed is the canonical deterministic seed for one grid cell. The
// multipliers are pairwise-coprime and large enough that no two cells of
// the paper-scale grid (10 maps x 10 scenarios x 3 repeats x 3 systems)
// collide. Changing this function invalidates every recorded table.
func GridSeed(gen core.Generation, mapIdx, scIdx, rep int) int64 {
	return int64(mapIdx)*1_000_003 + int64(scIdx)*9_176 + int64(rep)*77_711 + int64(gen)
}

// ConfigureFunc customizes one grid run after the world is generated and
// the system assembled, but before the mission flies. Hooks mutate the
// run config (timing, platform, fault injection) or the scenario's
// weather, and tune the system (replan cadence). Campaign workers call
// hooks concurrently, one invocation per run; a hook must only touch the
// arguments it is handed plus its own synchronized state.
type ConfigureFunc func(sc *worldgen.Scenario, sys *core.System, cfg *RunConfig)

// RunGridCell resolves and executes one cell of the benchmark grid: it
// acquires the (deterministic) world — shared through worldgen.Shared, so
// repetitions and parallel workers reuse one immutable world per cell
// instead of regenerating it — builds the system generation with the
// given seed, applies the timing profile and the optional configure hook,
// and flies the mission. Every execution path (parallel campaign workers,
// sequential -workers=1 campaigns, and the tests' nested reference loops)
// funnels through this primitive, which is what guarantees their results
// are bit-identical for the same cells.
//
// The acquired Scenario is a private shallow copy: configure hooks may
// mutate it (weather floors, mission tweaks) freely, but its World is
// shared and must be treated as immutable.
func RunGridCell(gen core.Generation, mapIdx, scIdx int, seed int64,
	timing Timing, configure ConfigureFunc) (Result, error) {
	sc, release, err := worldgen.Shared.Acquire(mapIdx, scIdx)
	if err != nil {
		return Result{}, err
	}
	defer release()
	sys, err := BuildSystem(gen, sc, seed)
	if err != nil {
		return Result{}, err
	}
	cfg := DefaultRunConfig(seed)
	cfg.Timing = timing
	if configure != nil {
		configure(sc, sys, &cfg)
	}
	return Run(sc, sys, cfg), nil
}

// RNG-stream scheme
//
// Every stochastic concern of a run (each sensor's noise, the wind) draws
// from its own rand.Rand, seeded by mixing the run seed with a
// concern-specific salt through a SplitMix64 finalizer. The historical
// scheme XORed small constants (cfg.Seed^0x1 ... ^0x7) onto the run seed,
// which has two aliasing hazards the mixer removes:
//
//   - cross-run aliasing: run seeds s1, s2 with s1^s2 equal to the XOR of
//     two salts hand the GPS of one run the exact byte stream of, say, the
//     wind of another, silently correlating "independent" repetitions;
//   - cross-concern correlation: XOR only flips low bits, so all streams
//     of one run start from near-identical LCG states.
//
// SplitMix64 is a bijective avalanche mixer: any bit difference in
// (seed, concern) diffuses over the whole output, so distinct concerns —
// including ones future in-run parallel subsystems will add — get
// statistically independent streams. New concerns must append to the
// constant list below, never renumber, and never reuse a salt.
type rngConcern uint64

const (
	concernGPS rngConcern = iota + 1
	concernIMU
	concernBaro
	concernLidar
	concernDepth
	concernColor
	concernWind
	// Fault-injection concerns (appended with the fault subsystem): each
	// fault family draws from its own stream, so an active fault plan
	// perturbs only its own randomness and a fault campaign stays a pure
	// function of (seed, plan).
	concernFaultDepth
	concernFaultColor
	concernFaultDetector
	concernFaultGPS
	concernFaultActuator
	concernFaultWind
	concernFaultComms
	// Fleet concern (appended with the fleet subsystem): salts the
	// per-member seed derivation of multi-drone runs (fleet.go), so a
	// wingman's whole sensor-stream family is independent of the
	// primary's and of every other run's.
	concernFleetMember
)

// subSeed derives the seed of one concern's RNG stream from the run seed.
func subSeed(runSeed int64, concern rngConcern) int64 {
	z := uint64(runSeed) + 0x9E3779B97F4A7C15*uint64(concern)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// subRNG returns the dedicated RNG stream of one concern of one run.
func subRNG(runSeed int64, concern rngConcern) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(runSeed, concern)))
}

// faultStreams derives the fault subsystem's per-concern RNG streams from
// the run seed. Only called when a fault plan is active, so the nil-plan
// hot path never pays the seven extra allocations.
func faultStreams(runSeed int64) fault.Streams {
	return fault.Streams{
		Depth:    subRNG(runSeed, concernFaultDepth),
		Color:    subRNG(runSeed, concernFaultColor),
		Detector: subRNG(runSeed, concernFaultDetector),
		GPS:      subRNG(runSeed, concernFaultGPS),
		Actuator: subRNG(runSeed, concernFaultActuator),
		Wind:     subRNG(runSeed, concernFaultWind),
		Comms:    subRNG(runSeed, concernFaultComms),
	}
}
