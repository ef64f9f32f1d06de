package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/planning"
	"repro/internal/scenario"
	"repro/internal/vision"
	"repro/internal/worldgen"
)

// The traced run measures each layer from outside, by wrapping its public
// interface: Detector, Map and Planner through a rebuilt core.System, and
// the coordinator protocol through an http.RoundTripper. No program code
// changes, and every traced pass must reproduce the untraced digests.

// callTimer accumulates one layer operation's calls, failures, busy time
// and per-call samples. It is safe for concurrent use: the perception and
// plan stages call layers off the control loop.
type callTimer struct {
	mu      sync.Mutex
	calls   int
	failed  int
	busy    time.Duration
	samples []float64 // ms per call
}

// observe records one call that started at t0.
func (t *callTimer) observe(t0 time.Time, failed bool) {
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	if failed {
		t.failed++
	}
	t.busy += d
	t.samples = append(t.samples, ms(d))
}

// add folds o into t.
func (t *callTimer) add(o *callTimer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls += o.calls
	t.failed += o.failed
	t.busy += o.busy
	t.samples = append(t.samples, o.samples...)
}

// layers holds one run's (or, folded, one pass's) layer figures. Map
// queries are too frequent to time; they are counted only.
type layers struct {
	detect, insert, plan callTimer
	queries              atomic.Int64
}

type tracedDetector struct {
	inner detect.Detector
	t     *callTimer
}

func (d tracedDetector) Name() string { return d.inner.Name() }

func (d tracedDetector) Detect(im *vision.Image) []detect.Detection {
	defer d.t.observe(time.Now(), false)
	return d.inner.Detect(im)
}

// tracedMap times cloud inserts (the only insert the system makes) and
// counts Blocked and State queries; the embedded Map forwards everything
// else.
type tracedMap struct {
	mapping.Map
	l *layers
}

func (m tracedMap) State(p geom.Vec3) mapping.VoxelState {
	m.l.queries.Add(1)
	return m.Map.State(p)
}

func (m tracedMap) Blocked(p geom.Vec3) bool {
	m.l.queries.Add(1)
	return m.Map.Blocked(p)
}

func (m tracedMap) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	defer m.l.insert.observe(time.Now(), false)
	m.Map.InsertCloud(origin, ends, hits)
}

type tracedPlanner struct {
	inner planning.Planner
	t     *callTimer
}

func (p tracedPlanner) Name() string { return p.inner.Name() }

func (p tracedPlanner) Plan(start, goal geom.Vec3, m mapping.Map) ([]geom.Vec3, error) {
	t0 := time.Now()
	path, err := p.inner.Plan(start, goal, m)
	p.t.observe(t0, err != nil)
	return path, err
}

// layerTrace is one traced pass's Spec.Configure hook and the layers of
// every run it rebuilt.
type layerTrace struct {
	mu   sync.Mutex
	runs []*layers
	err  error
}

// configure rebuilds the run's system with core.NewSystem from the Config
// scenario.BuildSystem produced, around wrapped modules. It keeps the
// detector and map BuildSystem made and rebuilds the planner, which the
// System does not expose, exactly as core's assemblies do.
func (lt *layerTrace) configure(ru campaign.Run, _ *worldgen.Scenario, sys *core.System, cfg *scenario.RunConfig) {
	l := &layers{}
	c := sys.Config()
	det, m := sys.Detector(), sys.Map()
	var planner planning.Planner
	switch c.Generation {
	case core.V1:
		planner = planning.StraightLine{}
	case core.V2:
		planner = planning.NewAStar(planning.DefaultAStarConfig())
	case core.V3:
		planner = planning.NewRRTStar(planning.DefaultRRTStarConfig(), ru.Seed)
	}
	if cfg.Timing.Fast {
		enableFast(det, planner)
	}
	// V2 re-centres its LocalMap every epoch; it must be the very grid the
	// wrapped Map forwards to.
	local, _ := m.(*mapping.LocalGrid)
	rebuilt, err := core.NewSystem(c, core.Dependencies{
		Detector: tracedDetector{det, &l.detect},
		Map:      tracedMap{m, l},
		Planner:  tracedPlanner{planner, &l.plan},
		LocalMap: local,
	})
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if err != nil {
		if lt.err == nil {
			lt.err = err
		}
		return
	}
	*sys = *rebuilt
	lt.runs = append(lt.runs, l)
}

// enableFast switches the fast kernels on the inner modules. The runner's
// System.EnableFastKernels type-asserts *detect.Learned and
// *planning.RRTStar, which the wrappers hide, so without this a traced
// fast pass would fly exact detection and planning.
func enableFast(det detect.Detector, planner planning.Planner) {
	if d, ok := det.(*detect.Learned); ok {
		d.EnableFast()
	}
	if p, ok := planner.(*planning.RRTStar); ok {
		p.Fast = true
	}
}

// total folds every run's layers; call it after the pass has returned.
func (lt *layerTrace) total() *layers {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	t := &layers{}
	for _, l := range lt.runs {
		t.detect.add(&l.detect)
		t.insert.add(&l.insert)
		t.plan.add(&l.plan)
		t.queries.Add(l.queries.Load())
	}
	return t
}

// requestTracer times the loopback worker's lease and upload requests and
// counts every request and uploaded byte.
type requestTracer struct {
	inner         http.RoundTripper
	lease, upload callTimer
	requests      atomic.Int64
	uploadBytes   atomic.Int64
}

// wrap installs inner as the transport the tracer forwards to.
func (t *requestTracer) wrap(inner http.RoundTripper) http.RoundTripper {
	t.inner = inner
	return t
}

func (t *requestTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	t.requests.Add(1)
	switch req.URL.Path {
	case coord.PathLease:
		t.lease.observe(t0, err != nil)
	case coord.PathResults:
		t.upload.observe(t0, err != nil)
		t.uploadBytes.Add(req.ContentLength)
	}
	return resp, err
}
