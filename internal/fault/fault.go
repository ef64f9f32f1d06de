// Package fault is the deterministic fault-injection subsystem that turns
// the campaign engine into a dependability benchmark (the paper is a DSN
// dependability study: the interesting scenarios are the degraded ones).
//
// A Plan is a declarative set of timed fault activations — sensor dropout
// and noise bursts, detector corruption, GPS drift, actuator degradation,
// wind gusts, and offboard-comms blackout — that the scenario runner
// injects at the simulation boundary. The system under test is never told
// a fault is active; it sees only the degraded sensor data and the
// degraded vehicle response, exactly as a fielded system would.
//
// Determinism is the design center. Every stochastic element of a fault
// (which frame a dropout eats, where a phantom detection lands, the gust
// sample of a storm burst) draws from its own per-concern RNG stream
// derived from the run seed with a SplitMix64-mixed salt (the scheme of
// internal/scenario/grid.go), so a fault campaign is a pure function of
// (seed, Plan): bit-identical across worker counts, checkpoint resumes,
// and distributed-merge orders. Plans ride scenario.Timing, so they flow
// into campaign Specs, checkpoint-journal signatures, and the
// coordinator's lease format without any extra plumbing.
//
// Field ownership mirrors the pipelined runner's: window activity is a
// pure function of (Plan, time) so both the control loop and a concurrent
// perception stage may query it, while each RNG stream and all mutable
// bookkeeping belong to exactly one goroutine (see Injector).
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind names one fault concern. The string values are the wire format
// (plans are persisted in campaign signatures, journals and leases) —
// never rename one, only append.
type Kind string

// The injectable fault kinds.
const (
	// DepthDropout suppresses forward depth captures: the mapper goes
	// blind (Probability per due frame, default 1).
	DepthDropout Kind = "depth-dropout"
	// DepthNoise multiplies the depth camera's range noise sigma by
	// Magnitude (default 6) — a degraded stereo match.
	DepthNoise Kind = "depth-noise"
	// ColorDropout suppresses downward camera frames: the detector sees
	// nothing (Probability per due frame, default 1).
	ColorDropout Kind = "color-dropout"
	// ColorNoise adds zero-mean pixel noise of sigma Magnitude (default
	// 0.08) to captured frames — sensor degradation beyond the weather.
	ColorNoise Kind = "color-noise"
	// DetectorMiss drops each detection leaving the detector with
	// Probability (default 1) — missed detections.
	DetectorMiss Kind = "detector-miss"
	// DetectorPhantom injects a spurious detection of the mission's target
	// marker at a uniform random image position with Probability per frame
	// (default 0.25) — phantom detections / marker spoofing.
	DetectorPhantom Kind = "detector-phantom"
	// GPSDrift adds a bias ramp of Magnitude m/s (default 0.35) in a
	// random horizontal direction drawn at activation — the
	// weather-correlated position drift of §V-C, on demand.
	GPSDrift Kind = "gps-drift"
	// ThrustLoss scales the vehicle's achieved velocity authority by
	// (1 - Magnitude), Magnitude default 0.4 — partial power loss. The
	// magnitude must stay below 1: the model degrades authority, it does
	// not remove it (Validate rejects a total loss).
	ThrustLoss Kind = "thrust-loss"
	// CommandDelay adds Magnitude (default 4) control ticks of extra
	// actuation latency while active — a congested offboard link.
	// Fractional magnitudes round up, so any active window delays by at
	// least one whole tick; overlapping windows do not stack (the worst
	// link dominates).
	CommandDelay Kind = "command-delay"
	// CommandDropout drops the tick's command with Probability (default
	// 0.5); the flight controller holds the last applied command.
	CommandDropout Kind = "command-dropout"
	// WindGust adds zero-mean gusts of sigma Magnitude m/s (default 2.5)
	// on top of the scenario's weather.
	WindGust Kind = "wind-gust"
	// CommsBlackout severs the offboard link: the system under test is
	// frozen (no sensor epochs in, no commands out) and the flight
	// controller holds the last commanded setpoint — the HIL tier's
	// link-loss failure mode.
	CommsBlackout Kind = "comms-blackout"
)

// Kinds lists every fault kind in a stable order.
func Kinds() []Kind {
	return []Kind{
		DepthDropout, DepthNoise, ColorDropout, ColorNoise,
		DetectorMiss, DetectorPhantom, GPSDrift,
		ThrustLoss, CommandDelay, CommandDropout,
		WindGust, CommsBlackout,
	}
}

// Fault is one timed activation window of one fault kind.
type Fault struct {
	Kind Kind `json:"kind"`
	// Start is the activation time in mission seconds.
	Start float64 `json:"start"`
	// Duration is the window length in seconds; zero (or omitted) means
	// until the mission ends (an unrecoverable fault). Negative durations
	// are rejected by Validate — silently reading a typo as "forever"
	// would make every mission fly degraded to the end.
	Duration float64 `json:"duration,omitempty"`
	// Magnitude is the kind-specific severity (noise scale, drift m/s,
	// thrust fraction lost, delay ticks, gust sigma); 0 selects the
	// kind's documented default.
	Magnitude float64 `json:"magnitude,omitempty"`
	// Probability is the per-event rate of stochastic kinds (dropouts,
	// misses, phantoms); 0 selects the kind's documented default.
	Probability float64 `json:"probability,omitempty"`
}

// activeAt reports whether the window covers mission time t. Pure: safe to
// call from the control loop and a perception stage concurrently.
func (f Fault) activeAt(t float64) bool {
	if t < f.Start {
		return false
	}
	return f.Duration <= 0 || t < f.Start+f.Duration
}

// end returns the window's deactivation time and whether one exists.
func (f Fault) end() (float64, bool) {
	if f.Duration <= 0 {
		return 0, false
	}
	return f.Start + f.Duration, true
}

// magnitude resolves the kind default from the Info table.
func (f Fault) magnitude() float64 {
	if f.Magnitude > 0 {
		return f.Magnitude
	}
	in, _ := KindInfo(f.Kind)
	return in.DefaultMagnitude
}

// probability resolves the kind default from the Info table; kinds
// without a documented default draw unconditionally.
func (f Fault) probability() float64 {
	if f.Probability > 0 {
		return f.Probability
	}
	if in, ok := KindInfo(f.Kind); ok && in.DefaultProbability > 0 {
		return in.DefaultProbability
	}
	return 1
}

// Plan is a declarative set of fault activations for one run. The zero
// value (and nil) injects nothing and must cost nothing: the runner keeps
// the nil-Plan mission on the zero-alloc hot path, bit-identical to a run
// executed before this subsystem existed.
//
// A Plan is immutable once it enters a campaign Spec: it is shared by
// every worker, rides the Spec signature into checkpoint journals, and is
// serialized by value into leases.
type Plan struct {
	Faults []Fault `json:"faults"`
}

// Active reports whether the plan injects anything, nil-safely.
func (p *Plan) Active() bool { return p != nil && len(p.Faults) > 0 }

// Validate checks kinds and window parameters.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	known := map[Kind]bool{}
	for _, k := range Kinds() {
		known[k] = true
	}
	for i, f := range p.Faults {
		if !known[f.Kind] {
			return fmt.Errorf("fault: unknown kind %q (fault %d)", f.Kind, i)
		}
		if f.Start < 0 {
			return fmt.Errorf("fault: %s start %.2f < 0 (fault %d)", f.Kind, f.Start, i)
		}
		if f.Duration < 0 {
			return fmt.Errorf("fault: %s duration %.2f < 0 (use 0 or omit for until-mission-end) (fault %d)", f.Kind, f.Duration, i)
		}
		if f.Probability < 0 || f.Probability > 1 {
			return fmt.Errorf("fault: %s probability %.2f outside [0,1] (fault %d)", f.Kind, f.Probability, i)
		}
		if f.Magnitude < 0 {
			return fmt.Errorf("fault: %s magnitude %.2f < 0 (fault %d)", f.Kind, f.Magnitude, i)
		}
		if f.Kind == ThrustLoss && f.Magnitude >= 1 {
			// A factor of exactly 0 would read as "invalid" to the vehicle
			// tap and silently restore nominal thrust; the model degrades
			// authority, it does not remove it.
			return fmt.Errorf("fault: thrust-loss magnitude %.2f, want < 1 (fault %d)", f.Magnitude, i)
		}
	}
	return nil
}

// String renders the plan in the -faults spec grammar (parseable by
// ParsePlan).
func (p *Plan) String() string {
	if !p.Active() {
		return "none"
	}
	parts := make([]string, 0, len(p.Faults))
	for _, f := range p.Faults {
		s := fmt.Sprintf("%s@%s", f.Kind, trimFloat(f.Start))
		if f.Duration > 0 {
			s += "+" + trimFloat(f.Duration)
		}
		var opts []string
		if f.Magnitude > 0 {
			opts = append(opts, "mag="+trimFloat(f.Magnitude))
		}
		if f.Probability > 0 {
			opts = append(opts, "prob="+trimFloat(f.Probability))
		}
		if len(opts) > 0 {
			s += ":" + strings.Join(opts, ",")
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// MarshalText / UnmarshalText are intentionally NOT implemented: plans are
// persisted as structured JSON (the journal/lease wire format), and the
// compact grammar below exists only for the -faults command-line flag.

// ParsePlan parses the -faults flag grammar: either a preset name
// (see Presets) or a semicolon-separated fault list where each fault is
//
//	kind@start[+duration][:key=value,...]
//
// with keys mag (magnitude) and prob (probability). Times are mission
// seconds. Example:
//
//	gps-drift@20+30:mag=0.5;depth-dropout@10+15:prob=0.8;comms-blackout@60+5
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	if !strings.ContainsAny(spec, "@") {
		if p, ok := preset(spec); ok {
			return p, nil
		}
		return nil, fmt.Errorf("fault: unknown preset %q (have %s)", spec, strings.Join(Presets(), ", "))
	}
	var p Plan
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("fault: %q: want kind@start[+duration][:opts]", part)
		}
		f := Fault{Kind: Kind(strings.TrimSpace(kindStr))}
		timeStr, optStr, hasOpts := strings.Cut(rest, ":")
		startStr, durStr, hasDur := strings.Cut(timeStr, "+")
		var err error
		if f.Start, err = strconv.ParseFloat(strings.TrimSpace(startStr), 64); err != nil {
			return nil, fmt.Errorf("fault: %q: bad start: %v", part, err)
		}
		if hasDur {
			if f.Duration, err = strconv.ParseFloat(strings.TrimSpace(durStr), 64); err != nil {
				return nil, fmt.Errorf("fault: %q: bad duration: %v", part, err)
			}
		}
		if hasOpts {
			for _, opt := range strings.Split(optStr, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
				if !ok {
					return nil, fmt.Errorf("fault: %q: bad option %q, want key=value", part, opt)
				}
				val, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, fmt.Errorf("fault: %q: bad %s: %v", part, k, err)
				}
				switch strings.TrimSpace(k) {
				case "mag":
					f.Magnitude = val
				case "prob":
					f.Probability = val
				default:
					return nil, fmt.Errorf("fault: %q: unknown option %q (want mag or prob)", part, k)
				}
			}
		}
		p.Faults = append(p.Faults, f)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// presets are the named fault campaigns the bench tools sweep. Windows sit
// in the 10–70 s band where every benchmark mission is still airborne.
var presets = map[string]Plan{
	"sensor": {Faults: []Fault{
		{Kind: DepthDropout, Start: 15, Duration: 20},
		{Kind: ColorDropout, Start: 40, Duration: 12, Probability: 0.7},
		{Kind: DepthNoise, Start: 60, Duration: 20},
	}},
	"detector": {Faults: []Fault{
		{Kind: DetectorMiss, Start: 20, Duration: 25, Probability: 0.8},
		{Kind: DetectorPhantom, Start: 50, Duration: 30},
	}},
	"gps": {Faults: []Fault{
		{Kind: GPSDrift, Start: 20, Duration: 40},
	}},
	"actuator": {Faults: []Fault{
		{Kind: ThrustLoss, Start: 15, Duration: 30},
		{Kind: CommandDropout, Start: 50, Duration: 15},
		{Kind: CommandDelay, Start: 70, Duration: 20},
	}},
	"storm": {Faults: []Fault{
		{Kind: WindGust, Start: 10, Duration: 60, Magnitude: 3.0},
		{Kind: ColorNoise, Start: 10, Duration: 60},
		{Kind: GPSDrift, Start: 25, Duration: 35, Magnitude: 0.25},
	}},
	"blackout": {Faults: []Fault{
		{Kind: CommsBlackout, Start: 25, Duration: 6},
		{Kind: CommsBlackout, Start: 55, Duration: 10},
	}},
	"degraded": {Faults: []Fault{
		{Kind: GPSDrift, Start: 15, Duration: 30, Magnitude: 0.2},
		{Kind: DepthDropout, Start: 30, Duration: 10, Probability: 0.6},
		{Kind: DetectorMiss, Start: 45, Duration: 15, Probability: 0.5},
		{Kind: WindGust, Start: 20, Duration: 40, Magnitude: 1.5},
	}},
}

// Presets lists the preset names in sorted order.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// preset returns a copy of the named preset plan.
func preset(name string) (*Plan, bool) {
	p, ok := presets[name]
	if !ok {
		return nil, false
	}
	cp := Plan{Faults: append([]Fault(nil), p.Faults...)}
	return &cp, true
}

// Event is one fault activation or deactivation, for the telemetry
// timeline.
type Event struct {
	T      float64
	Kind   Kind
	Active bool
}
