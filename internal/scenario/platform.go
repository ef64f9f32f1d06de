package scenario

import "repro/internal/obs"

// Platform is the compute cost of the board a hardware campaign flies on
// (hil.Platform builds it). A mission with RunConfig.Platform set charges
// its module work to it, closes one load sample per second of link-up
// time, records each sample as a "resource" event and summarizes them in
// Result.Resources. The rest of the Result does not depend on it.
type Platform struct {
	Cores int
	// CoreSpeed is one core's clock over the reference core the costs are
	// quoted at.
	CoreSpeed float64
	// Reference core-ms per detector inference, depth integration, planner
	// call and control tick, and per second of camera feed and middleware.
	DetectMS, DepthMS, PlanMS, ControlMS, FeedMS float64
	// Resident memory below and above the live map's footprint: the OS,
	// stack and detector engine, then the frame and point-cloud buffers.
	MemBaseMB, MemBufferMB float64
}

// Resources summarizes a hardware run's load samples: the mean aggregate
// CPU percent (0..100*Cores) and the mean and peak resident memory. A run
// that never closed a sample carries zeros.
type Resources struct {
	MeanCPU   float64 `json:"mean_cpu"`
	MeanMemMB float64 `json:"mean_mem_mb"`
	PeakMemMB float64 `json:"peak_mem_mb"`
}

// platformLoad is a mission's platform account: the work charged since
// the last sample, and the sums behind Resources.
type platformLoad struct {
	detect, depth, plan, control, window float64
	cpuSum, memSum, peakMem              float64
	samples                              int
}

// chargePlatform charges one stepped tick — the control tick, its
// detection and depth work and each planner call — and closes a sample
// once a full second has accrued. Blacked-out ticks never step the
// system, so they charge nothing: the offboard stack is frozen.
func (m *mission) chargePlatform(p *Platform, detect, depth bool, plans int) {
	l := &m.load
	l.control += p.ControlMS
	if detect {
		l.detect += p.DetectMS
	}
	if depth {
		l.depth += p.DepthMS
	}
	for ; plans > 0; plans-- {
		l.plan += p.PlanMS
	}
	l.window += m.t.Dt
	if l.window < 1.0 {
		return
	}

	// SMP waterfill: the scheduler spreads the stack's threads over every
	// core up to its capacity (the paper's "all four CPU cores heavily
	// utilised"), so all cores run at one level, summed core by core.
	capacity := p.CoreSpeed * 1000 * l.window // reference core-ms per core
	feed := p.FeedMS * l.window
	work := l.detect + l.depth + l.plan + l.control + feed
	level := min(100*(work/float64(p.Cores))/capacity, 100)
	var cpu float64
	for range p.Cores {
		cpu += level
	}
	mem := p.MemBaseMB + float64(m.sys.Map().MemoryBytes())/1e6 + p.MemBufferMB

	l.cpuSum += cpu
	l.memSum += mem
	l.peakMem = max(l.peakMem, mem)
	l.samples++
	if m.rec != nil {
		m.record(obs.Event{Tick: m.curTick, T: m.now, Kind: "resource", Value: cpu, MemMB: mem})
	}
	l.detect, l.depth, l.plan, l.control, l.window = 0, 0, 0, 0, 0
}

// finishPlatform fills Result.Resources; a nil platform leaves it nil.
func (m *mission) finishPlatform() {
	if m.cfg.Platform == nil {
		return
	}
	l := &m.load
	r := &Resources{PeakMemMB: l.peakMem}
	if l.samples > 0 {
		r.MeanCPU, r.MeanMemMB = l.cpuSum/float64(l.samples), l.memSum/float64(l.samples)
	}
	m.res.Resources = r
}
