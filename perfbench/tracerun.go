package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/scenario"
)

// perLayer lists the traced run's metrics and units, in BENCHMARK.json's
// order. Counts and times are per pass (one flight of the workload's
// grid), per-call times pool every traced call, and a layer a workload
// never reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"detect.calls", "count"},
	{"detect.busy_ms", "ms"},
	{"detect.call_p50_ms", "ms"},
	{"detect.call_tail_ms", "ms"},
	{"detect.call_tail_q", "quantile"},
	{"mapping.insert_calls", "count"},
	{"mapping.insert_busy_ms", "ms"},
	{"mapping.insert_p50_ms", "ms"},
	{"mapping.insert_tail_ms", "ms"},
	{"mapping.insert_tail_q", "quantile"},
	{"mapping.queries", "count"},
	{"planning.calls", "count"},
	{"planning.busy_ms", "ms"},
	{"planning.failed_ratio", "ratio"},
	{"planning.call_p50_ms", "ms"},
	{"planning.call_tail_ms", "ms"},
	{"planning.call_tail_q", "quantile"},
	{"scenario.mission_ms", "ms"},
	{"scenario.loop_ms", "ms"},
	{"scenario.capture_ms", "ms"},
	{"scenario.perception_stall_ms", "ms"},
	{"scenario.plan_stall_ms", "ms"},
	{"scenario.plans_delivered", "count"},
	{"scenario.plan_stale_ratio", "ratio"},
	{"fleet.fleet_ms", "ms"},
	{"fleet.solo_ms", "ms"},
	{"fleet.solo_ratio", "ratio"},
	{"worldgen.generate_ms", "ms"},
	{"worldgen.acquires", "count"},
	{"worldgen.cache_hit_ratio", "ratio"},
	{"campaign.utilization", "ratio"},
	{"coord.requests", "count"},
	{"coord.lease_calls", "count"},
	{"coord.lease_ms", "ms"},
	{"coord.lease_tail_ms", "ms"},
	{"coord.lease_tail_q", "quantile"},
	{"coord.upload_calls", "count"},
	{"coord.upload_ms", "ms"},
	{"coord.upload_tail_ms", "ms"},
	{"coord.upload_tail_q", "quantile"},
	{"coord.upload_kb", "KiB"},
	{"coord.direct_runs_per_s", "1/s"},
	{"coord.overhead_pct", "%"},
	{"runtime.allocs_per_run", "count"},
	{"runtime.alloc_mb_per_run", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"trace.untraced_runs_per_s", "1/s"},
	{"trace.traced_runs_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// figures collects per-pass values of per-layer metrics; each metric
// reports the median of its values.
type figures map[string][]float64

func (f figures) add(name string, v float64) { f[name] = append(f[name], v) }

// perCall sets a per-call timing's median, the highest percentile with at
// least ten calls beyond it, and that percentile. pooled keeps the calls
// of every traced pass so far, keyed by the median's name.
func (f figures) perCall(pooled map[string][]float64, t *callTimer, p50, tail, tailQ string) {
	all := append(pooled[p50], t.samples...)
	pooled[p50] = all
	q := tailQuantile(len(all))
	f[p50] = []float64{median(all)}
	f[tail] = []float64{quantile(all, q)}
	f[tailQ] = []float64{q}
}

// runTraced measures the workload's per-layer metrics. It alternates an
// untraced pass with a traced one (plus, for fleet, the same cells flown
// solo and, for loopback, a direct campaign.Execute) for o.seconds, at
// least once, and checks every pass's digests.
func runTraced(ctx context.Context, w workload, o options) (result, error) {
	b, err := newBench(w, o)
	if err != nil {
		return result{}, err
	}
	setupsDone, err := b.setup(ctx)
	if err != nil {
		return result{}, err
	}
	fig := figures{}
	var gen []float64
	for _, s := range setupsDone {
		gen = append(gen, s.generate...)
	}
	last := setupsDone[len(setupsDone)-1]
	fig.add("worldgen.generate_ms", median(gen))
	fig.add("worldgen.acquires", last.hits+last.misses)
	fig.add("worldgen.cache_hit_ratio", ratio(last.hits, last.hits+last.misses))

	var soloChk checker
	samples := map[string][]float64{}
	var untracedRps, tracedRps, cycles []float64
	for start := time.Now(); more(start, cycles, 1, o.seconds); {
		if err := ctx.Err(); err != nil {
			return result{}, err
		}
		c0 := time.Now()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		u := b.fly(ctx)
		runtime.ReadMemStats(&m1)
		uok := b.judge("untraced", u, &b.chk)
		if uok {
			untracedRps = append(untracedRps, u.runsPerS())
			fig.add("runtime.allocs_per_run", ratio(float64(m1.Mallocs-m0.Mallocs), float64(u.runs)))
			fig.add("runtime.alloc_mb_per_run", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), float64(u.runs)))
			fig.add("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
			if r := u.report; r != nil {
				fig.add("campaign.utilization", ratio(r.Busy.Seconds(), r.Wall.Seconds()*float64(r.Workers)))
			}
		}

		t, err := b.flyTraced(ctx, fig, samples)
		if err != nil {
			return result{}, err
		}
		if b.judge("traced", t, &b.chk) {
			tracedRps = append(tracedRps, t.runsPerS())
		}

		switch w.kind {
		case fleet:
			solo := b.spec
			solo.Timing.Fleet = nil
			s := timed(func() passOutcome { return localPass(ctx, solo, w.workers) })
			if b.judge("solo", s, &soloChk) && uok {
				fig.add("fleet.fleet_ms", ms(u.report.Busy))
				fig.add("fleet.solo_ms", ms(s.report.Busy))
				size := float64(b.spec.Timing.Fleet.Size)
				fig.add("fleet.solo_ratio", ratio(u.report.Busy.Seconds(), size*s.report.Busy.Seconds()))
			}
		case loopback:
			d := timed(func() passOutcome { return localPass(ctx, b.spec, w.workers) })
			d.d.Results = "" // the coordinator exposes aggregates only
			if b.judge("direct", d, &b.chk) && uok {
				fig.add("coord.direct_runs_per_s", d.runsPerS())
				fig.add("coord.overhead_pct", 100*(d.runsPerS()/u.runsPerS()-1))
			}
		}
		cycles = append(cycles, time.Since(c0).Seconds())
	}
	un, tr := median(untracedRps), median(tracedRps)
	fig.add("trace.untraced_runs_per_s", un)
	fig.add("trace.traced_runs_per_s", tr)
	fig.add("trace.overhead_pct", 100*(ratio(un, tr)-1))

	metrics := map[string]metric{}
	for _, m := range perLayer {
		metrics[m.name] = metric{median(fig[m.name]), m.unit}
	}
	return b.result(metrics, soloChk), nil
}

// flyTraced flies one traced pass and adds its layer figures: wrapped
// layers for local workloads, timed requests for loopback. A fleet's
// traced pass wraps nothing, so it measures the overhead figure's noise.
func (b *bench) flyTraced(ctx context.Context, fig figures, samples map[string][]float64) (passOutcome, error) {
	before, err := readRegistry()
	if err != nil {
		return passOutcome{}, err
	}
	var (
		lt *layerTrace
		rt *requestTracer
		p  passOutcome
	)
	switch b.w.kind {
	case local:
		lt = &layerTrace{}
		spec := b.spec
		spec.Configure = lt.configure
		p = timed(func() passOutcome { return localPass(ctx, spec, b.w.workers) })
		if p.err == nil && lt.err != nil {
			p.err = lt.err
		}
	case fleet:
		p = b.fly(ctx)
	case loopback:
		rt = &requestTracer{}
		p = timed(func() passOutcome { return loopbackPass(ctx, b.spec, b.w.workers, b.o.workdir, rt.wrap) })
	}
	after, err := readRegistry()
	if err != nil {
		return passOutcome{}, err
	}
	if p.err != nil {
		return p, nil
	}

	stageMs := after.delta(before, "scenario_pipeline_stage_busy_ns_total") / 1e6
	stallMs := after.delta(before, "scenario_pipeline_stall_ns_total") / 1e6
	planStallMs := after.delta(before, "scenario_planstage_stall_ns_total") / 1e6
	delivered := after.delta(before, "scenario_planstage_delivered_total")
	fig.add("scenario.perception_stall_ms", stallMs)
	fig.add("scenario.plan_stall_ms", planStallMs)
	fig.add("scenario.plans_delivered", delivered)
	fig.add("scenario.plan_stale_ratio", ratio(after.delta(before, "scenario_planstage_stale_dropped_total"), delivered))

	if lt != nil {
		l := lt.total()
		fig.add("detect.calls", float64(l.detect.calls))
		fig.add("detect.busy_ms", ms(l.detect.busy))
		fig.perCall(samples, &l.detect, "detect.call_p50_ms", "detect.call_tail_ms", "detect.call_tail_q")
		fig.add("mapping.insert_calls", float64(l.insert.calls))
		fig.add("mapping.insert_busy_ms", ms(l.insert.busy))
		fig.perCall(samples, &l.insert, "mapping.insert_p50_ms", "mapping.insert_tail_ms", "mapping.insert_tail_q")
		fig.add("mapping.queries", float64(l.queries.Load()))
		fig.add("planning.calls", float64(l.plan.calls))
		fig.add("planning.busy_ms", ms(l.plan.busy))
		fig.add("planning.failed_ratio", ratio(float64(l.plan.failed), float64(l.plan.calls)))
		fig.perCall(samples, &l.plan, "planning.call_p50_ms", "planning.call_tail_ms", "planning.call_tail_q")

		// The rest of the control loop is mission time less the layer
		// calls made on it and its waits for the stages.
		timing := b.spec.Timing
		loop := ms(p.report.Busy) - ms(l.insert.busy) - stallMs - planStallMs
		if timing.Pipeline != scenario.PipelineOn {
			loop -= ms(l.detect.busy)
		}
		if timing.PlanLatencyTicks < 1 {
			loop -= ms(l.plan.busy)
		}
		fig.add("scenario.mission_ms", ms(p.report.Busy))
		fig.add("scenario.loop_ms", loop)
		if timing.Pipeline == scenario.PipelineOn {
			fig.add("scenario.capture_ms", stageMs-ms(l.detect.busy))
		}
	}
	if rt != nil {
		fig.add("coord.requests", float64(rt.requests.Load()))
		fig.add("coord.lease_calls", float64(rt.lease.calls))
		fig.perCall(samples, &rt.lease, "coord.lease_ms", "coord.lease_tail_ms", "coord.lease_tail_q")
		fig.add("coord.upload_calls", float64(rt.upload.calls))
		fig.perCall(samples, &rt.upload, "coord.upload_ms", "coord.upload_tail_ms", "coord.upload_tail_q")
		fig.add("coord.upload_kb", float64(rt.uploadBytes.Load())/1024)
	}
	return p, nil
}
