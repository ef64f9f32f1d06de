package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
)

// Wire encoding for campaign persistence and distribution.
//
// Checkpoint journals and coordinator uploads carry per-run Results, and
// an Aggregate digests over its encoding, accumulators included. Both must
// encode bit-exactly: a resumed or served campaign is verified against an
// uninterrupted one by digest, so a single flipped mantissa bit would read
// as corruption. encoding/json already
// round-trips finite float64s exactly (shortest-representation encoding),
// leaving two gaps this file closes: NaN (a legal value for the landing
// and detection metrics, but not a legal JSON number) and the Aggregate's
// unexported fixed-point accumulators.

// nanFloat is a float64 that encodes non-finite values as JSON strings.
type nanFloat float64

// MarshalJSON implements json.Marshaler.
func (f nanFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *nanFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = nanFloat(math.NaN())
		case "+Inf":
			*f = nanFloat(math.Inf(1))
		case "-Inf":
			*f = nanFloat(math.Inf(-1))
		default:
			return fmt.Errorf("scenario: invalid float string %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = nanFloat(v)
	return nil
}

// resultJSON mirrors Result field for field with NaN-safe floats. The
// remaining float fields (durations, drift, detection positions) are
// finite by construction and round-trip exactly as plain JSON numbers.
type resultJSON struct {
	Outcome              Outcome    `json:"outcome"`
	FinalState           core.State `json:"final_state"`
	Duration             float64    `json:"duration"`
	Landed               bool       `json:"landed"`
	LandingError         nanFloat   `json:"landing_error"`
	DetectionError       nanFloat   `json:"detection_error"`
	MarkerVisibleFrames  int        `json:"marker_visible_frames"`
	MarkerDetectedFrames int        `json:"marker_detected_frames"`
	OnWater              bool       `json:"on_water"`
	Stats                core.Stats `json:"stats"`
	MaxGPSDrift          float64    `json:"max_gps_drift"`

	// Dependability metrics (fault campaigns). omitempty keeps the
	// encoding of a nominal run — where all of these are zero — byte-
	// identical to the pre-fault codec, so recorded journal digests and
	// the committed golden sweep digest are unchanged. RecoverySeconds is
	// finite by construction (never NaN), so a plain float64 suffices;
	// Recovered disambiguates a genuine zero-delay recovery from the
	// omitted nominal zero.
	DegradedTicks   int     `json:"degraded_ticks,omitempty"`
	FaultInjections int     `json:"fault_injections,omitempty"`
	Recovered       bool    `json:"recovered,omitempty"`
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
	AbortCause      string  `json:"abort_cause,omitempty"`

	// Airspace-deconfliction metrics (fleet campaigns), omitempty for the
	// same reason: a solo run — where all of these are zero — encodes
	// byte-identically to the pre-fleet codec. FleetThroughput is finite
	// by construction (the world footprint is a fixed positive area), so a
	// plain float64 suffices.
	FleetSize            int     `json:"fleet_size,omitempty"`
	FleetSuccesses       int     `json:"fleet_successes,omitempty"`
	NearMisses           int     `json:"near_misses,omitempty"`
	SeparationViolations int     `json:"separation_violations,omitempty"`
	FleetThroughput      float64 `json:"fleet_throughput,omitempty"`

	// Platform-load summary; a SIL run carries none and encodes as before.
	Resources *Resources `json:"resources,omitempty"`
}

// MarshalJSON implements json.Marshaler with a bit-exact, NaN-safe
// encoding suitable for checkpoint journals.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultJSON{
		Outcome:              r.Outcome,
		FinalState:           r.FinalState,
		Duration:             r.Duration,
		Landed:               r.Landed,
		LandingError:         nanFloat(r.LandingError),
		DetectionError:       nanFloat(r.DetectionError),
		MarkerVisibleFrames:  r.MarkerVisibleFrames,
		MarkerDetectedFrames: r.MarkerDetectedFrames,
		OnWater:              r.OnWater,
		Stats:                r.Stats,
		MaxGPSDrift:          r.MaxGPSDrift,
		DegradedTicks:        r.DegradedTicks,
		FaultInjections:      r.FaultInjections,
		Recovered:            r.Recovered,
		RecoverySeconds:      r.RecoverySeconds,
		AbortCause:           r.AbortCause,
		FleetSize:            r.FleetSize,
		FleetSuccesses:       r.FleetSuccesses,
		NearMisses:           r.NearMisses,
		SeparationViolations: r.SeparationViolations,
		FleetThroughput:      r.FleetThroughput,
		Resources:            r.Resources,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Result) UnmarshalJSON(b []byte) error {
	var v resultJSON
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*r = Result{
		Outcome:              v.Outcome,
		FinalState:           v.FinalState,
		Duration:             v.Duration,
		Landed:               v.Landed,
		LandingError:         float64(v.LandingError),
		DetectionError:       float64(v.DetectionError),
		MarkerVisibleFrames:  v.MarkerVisibleFrames,
		MarkerDetectedFrames: v.MarkerDetectedFrames,
		OnWater:              v.OnWater,
		Stats:                v.Stats,
		MaxGPSDrift:          v.MaxGPSDrift,
		DegradedTicks:        v.DegradedTicks,
		FaultInjections:      v.FaultInjections,
		Recovered:            v.Recovered,
		RecoverySeconds:      v.RecoverySeconds,
		AbortCause:           v.AbortCause,
		FleetSize:            v.FleetSize,
		FleetSuccesses:       v.FleetSuccesses,
		NearMisses:           v.NearMisses,
		SeparationViolations: v.SeparationViolations,
		FleetThroughput:      v.FleetThroughput,
		Resources:            v.Resources,
	}
	return nil
}

// Digest returns a short hex digest of the result's canonical encoding.
// Journals store it next to each persisted result so torn or bit-rotted
// entries are detected on load rather than silently poisoning a resume.
func (r Result) Digest() string {
	b, err := json.Marshal(r)
	if err != nil {
		// Result marshaling is total over the struct; reaching this means
		// the codec itself is broken, which must not pass silently.
		panic(fmt.Sprintf("scenario: result digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// aggregateJSON is the digest form of an Aggregate: the integer counters
// plus the exact fixed-point accumulators. The derived float columns are
// deliberately absent — they are functions of the accumulators, so the
// digest covers the exact sums rather than their rounded means.
type aggregateJSON struct {
	System         string `json:"system"`
	Runs           int    `json:"runs"`
	Success        int    `json:"success"`
	Collision      int    `json:"collision"`
	PoorLanding    int    `json:"poor_landing"`
	LandSumHi      int64  `json:"land_sum_hi"`
	LandSumLo      uint64 `json:"land_sum_lo"`
	LandN          int    `json:"land_n"`
	DetSumHi       int64  `json:"det_sum_hi"`
	DetSumLo       uint64 `json:"det_sum_lo"`
	DetN           int    `json:"det_n"`
	VisibleFrames  int    `json:"visible_frames"`
	DetectedFrames int    `json:"detected_frames"`

	// Dependability counters (fault campaigns), omitempty for the same
	// reason as resultJSON's: a nominal aggregate must encode — and
	// digest — exactly as it did before the fault subsystem existed.
	// (encoding/json sorts map keys, so AbortCauses digests
	// deterministically.)
	FaultRuns       int            `json:"fault_runs,omitempty"`
	DegradedTicks   int            `json:"degraded_ticks,omitempty"`
	FaultInjections int            `json:"fault_injections,omitempty"`
	RecoveredRuns   int            `json:"recovered_runs,omitempty"`
	RecSumHi        int64          `json:"rec_sum_hi,omitempty"`
	RecSumLo        uint64         `json:"rec_sum_lo,omitempty"`
	AbortCauses     map[string]int `json:"abort_causes,omitempty"`

	// Airspace-deconfliction counters (fleet campaigns), omitempty for
	// the same reason: a solo aggregate digests exactly as it did before
	// the fleet subsystem existed.
	FleetRuns            int    `json:"fleet_runs,omitempty"`
	FleetDrones          int    `json:"fleet_drones,omitempty"`
	FleetSuccesses       int    `json:"fleet_successes,omitempty"`
	NearMisses           int    `json:"near_misses,omitempty"`
	SeparationViolations int    `json:"separation_violations,omitempty"`
	ThrSumHi             int64  `json:"thr_sum_hi,omitempty"`
	ThrSumLo             uint64 `json:"thr_sum_lo,omitempty"`

	// Platform rows; nil on a SIL aggregate, which encodes as before.
	Platform *platformJSON `json:"platform,omitempty"`
}

// platformJSON is the digest form of an Aggregate's platform rows.
type platformJSON struct {
	Runs        int     `json:"runs"`
	CPUSumHi    int64   `json:"cpu_sum_hi"`
	CPUSumLo    uint64  `json:"cpu_sum_lo"`
	MemSumHi    int64   `json:"mem_sum_hi"`
	MemSumLo    uint64  `json:"mem_sum_lo"`
	PeakMemMB   float64 `json:"peak_mem_mb"`
	DriftSumHi  int64   `json:"drift_sum_hi"`
	DriftSumLo  uint64  `json:"drift_sum_lo"`
	LandedN     int     `json:"landed_n"`
	LandedSumHi int64   `json:"landed_sum_hi"`
	LandedSumLo uint64  `json:"landed_sum_lo"`
}

// MarshalJSON implements json.Marshaler, encoding the accumulators so the
// digest of an aggregate pins its exact sums. Nothing decodes an
// Aggregate: journals, leases and uploads carry Results, and every
// receiver folds them into its own aggregates.
func (a Aggregate) MarshalJSON() ([]byte, error) {
	var platform *platformJSON
	if a.PlatformRuns > 0 {
		platform = &platformJSON{
			Runs:     a.PlatformRuns,
			CPUSumHi: a.cpuSum.hi, CPUSumLo: a.cpuSum.lo,
			MemSumHi: a.memSum.hi, MemSumLo: a.memSum.lo,
			PeakMemMB:  a.PeakMemMB,
			DriftSumHi: a.driftSum.hi, DriftSumLo: a.driftSum.lo,
			LandedN:     a.LandedRuns,
			LandedSumHi: a.landedSum.hi, LandedSumLo: a.landedSum.lo,
		}
	}
	return json.Marshal(aggregateJSON{
		System:               a.System,
		Runs:                 a.Runs,
		Success:              a.Success,
		Collision:            a.Collision,
		PoorLanding:          a.PoorLanding,
		LandSumHi:            a.landSum.hi,
		LandSumLo:            a.landSum.lo,
		LandN:                a.landN,
		DetSumHi:             a.detSum.hi,
		DetSumLo:             a.detSum.lo,
		DetN:                 a.detN,
		VisibleFrames:        a.visibleFrames,
		DetectedFrames:       a.detectedFrames,
		FaultRuns:            a.FaultRuns,
		DegradedTicks:        a.DegradedTicks,
		FaultInjections:      a.FaultInjections,
		RecoveredRuns:        a.RecoveredRuns,
		RecSumHi:             a.recSum.hi,
		RecSumLo:             a.recSum.lo,
		AbortCauses:          a.AbortCauses,
		FleetRuns:            a.FleetRuns,
		FleetDrones:          a.FleetDrones,
		FleetSuccesses:       a.FleetSuccesses,
		NearMisses:           a.NearMisses,
		SeparationViolations: a.SeparationViolations,
		ThrSumHi:             a.thrSum.hi,
		ThrSumLo:             a.thrSum.lo,
		Platform:             platform,
	})
}

// Digest returns the hex sha256 of the aggregate's canonical encoding.
// Because aggregation is exact and order-independent, two campaigns over
// the same result set — sequential, parallel, resumed from a checkpoint,
// or merged from distributed shards in any order — digest identically.
func (a Aggregate) Digest() string {
	b, err := json.Marshal(a)
	if err != nil {
		panic(fmt.Sprintf("scenario: aggregate digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
