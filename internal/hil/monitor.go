package hil

import (
	"strings"

	"repro/internal/obs"
)

// Sample is one resource-usage observation (Fig. 7 series point).
type Sample struct {
	T float64
	// CPUPercent is aggregate utilization across all cores, 0..100*cores.
	CPUPercent float64
	// PerCore is utilization per core, 0..100 each.
	PerCore []float64
	// MemMB is resident memory in megabytes.
	MemMB float64
}

// Monitor accumulates the resource time series of one mission, modeling
// how the stack's work maps onto the platform's cores: detection pins one
// core, mapping and planning share a second, control a third, and the
// camera feed (field profile) spreads across the remainder. Attach it as
// both RunConfig.Observer (module activity) and RunConfig.Recorder (fault
// edges and perception deliveries).
type Monitor struct {
	Profile Profile
	Costs   ModuleCosts

	samples []Sample

	// Work accumulated since the last sample, in core-ms at 1 GHz.
	detectMS, mapMS, planMS, controlMS float64
	window                             float64

	// Stage-timing counters, rebuilt from the mission's apply events: one
	// batch is the detector and/or depth work of one applied perception
	// result; delay is its capture-to-apply distance in control ticks.
	stageBatches  int
	stageDetects  int
	stageDepths   int
	stageDelaySum int
	stageDelayMax int

	// Fault-event timeline (dependability campaigns): the mission's fault
	// events — every injection and clearance edge — in mission order.
	faultEvents []obs.Event
}

// NewMonitor returns a monitor for a profile.
func NewMonitor(p Profile, c ModuleCosts) *Monitor {
	return &Monitor{Profile: p, Costs: c}
}

// RecordDetect notes one detector inference.
func (m *Monitor) RecordDetect() { m.detectMS += m.Costs.DetectMS }

// RecordDepth notes one depth-map integration.
func (m *Monitor) RecordDepth() { m.mapMS += m.Costs.DepthInsertMS }

// RecordPlan notes one planner invocation.
func (m *Monitor) RecordPlan() { m.planMS += m.Costs.PlanMS }

// RecordControl notes one control tick.
func (m *Monitor) RecordControl() { m.controlMS += m.Costs.ControlMS }

// Record implements obs.Recorder: the monitor rebuilds its fault timeline
// and stage timing from the mission's own flight-recorder events. Only
// member 0 is monitored — a solo mission, or a fleet's primary.
func (m *Monitor) Record(ev obs.Event) {
	if ev.Member != 0 {
		return
	}
	switch ev.Kind {
	case "fault":
		m.faultEvents = append(m.faultEvents, ev)
	case "apply":
		m.stageBatches++
		if strings.Contains(ev.Detail, "frame") {
			m.stageDetects++
		}
		if strings.Contains(ev.Detail, "depth") {
			m.stageDepths++
		}
		delay := int(ev.Value)
		m.stageDelaySum += delay
		if delay > m.stageDelayMax {
			m.stageDelayMax = delay
		}
	}
}

// FaultEvents returns the recorded fault-event timeline; obs.FormatEvent
// renders each edge.
func (m *Monitor) FaultEvents() []obs.Event { return m.faultEvents }

// StageStats summarizes the perception batches this mission applied:
// batch/detect/depth counts plus the mean and max tick-stamped delivery
// delay (0 under PipelineOff, which applies in the capture tick).
func (m *Monitor) StageStats() (batches, detects, depths int, meanDelay float64, maxDelay int) {
	if m.stageBatches == 0 {
		return 0, 0, 0, 0, 0
	}
	return m.stageBatches, m.stageDetects, m.stageDepths,
		float64(m.stageDelaySum) / float64(m.stageBatches), m.stageDelayMax
}

// Advance accrues wall time; every second it emits one sample based on the
// accumulated work and the live map footprint.
func (m *Monitor) Advance(dt float64, t float64, mapBytes int) {
	m.window += dt
	if m.window < 1.0 {
		return
	}
	coreCapacity := (m.Profile.CoreGHz / refGHz) * 1000 * m.window // reference core-ms per core

	// SMP waterfill: the Linux scheduler migrates the stack's threads, so
	// aggregate work spreads across cores up to each core's capacity —
	// reproducing the paper's "all four CPU cores heavily utilised".
	feed := (m.Costs.CameraFeedMS + m.Costs.StackOverheadMS) * m.window
	work := m.detectMS + m.mapMS + m.planMS + m.controlMS + feed
	perCore := work / float64(m.Profile.Cores)

	s := Sample{T: t, PerCore: make([]float64, m.Profile.Cores)}
	var total float64
	for i := range s.PerCore {
		u := 100 * perCore / coreCapacity
		if u > 100 {
			u = 100
		}
		s.PerCore[i] = u
		total += u
	}
	s.CPUPercent = total
	s.MemMB = MemoryModelMB(m.Profile, m.Costs, mapBytes)
	m.samples = append(m.samples, s)

	m.detectMS, m.mapMS, m.planMS, m.controlMS = 0, 0, 0, 0
	m.window = 0
}

// Samples returns the recorded series.
func (m *Monitor) Samples() []Sample { return m.samples }

// Peak returns the maximum aggregate CPU percentage and memory seen.
func (m *Monitor) Peak() (cpu float64, memMB float64) {
	for _, s := range m.samples {
		if s.CPUPercent > cpu {
			cpu = s.CPUPercent
		}
		if s.MemMB > memMB {
			memMB = s.MemMB
		}
	}
	return cpu, memMB
}

// MeanCPU returns the average aggregate CPU percentage.
func (m *Monitor) MeanCPU() float64 {
	if len(m.samples) == 0 {
		return 0
	}
	var s float64
	for _, x := range m.samples {
		s += x.CPUPercent
	}
	return s / float64(len(m.samples))
}

// MeanMemMB returns the average resident memory.
func (m *Monitor) MeanMemMB() float64 {
	if len(m.samples) == 0 {
		return 0
	}
	var s float64
	for _, x := range m.samples {
		s += x.MemMB
	}
	return s / float64(len(m.samples))
}
