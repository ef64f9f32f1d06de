// Package obs is the unified observability plane: a process-wide metrics
// registry (counters, gauges, fixed-boundary histograms) and the mission
// flight recorder (trace.go).
//
// The registry holds the repo's standing hot-path contract: increments are
// lock-free sync/atomic operations and allocate nothing after
// registration, so instrumented code stays bit-identical and
// alloc-neutral (the campaign engine's golden digests and benchgate
// budgets guard this). Registration happens once, at package init time,
// and panics on conflicts — a duplicate or malformed metric name is a
// programming error, not a runtime condition.
//
// Everything is self-describing: Describe returns the sorted catalog of
// every registered metric (name, type, unit, help), and the same catalog
// drives both the Prometheus text exposition (WritePrometheus, Handler)
// and the docs/observability.md drift guard. Snapshots are deterministic:
// names sort lexically and values encode canonically, so two snapshots of
// identical counter states are byte-identical.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// MetricType classifies a registered metric for Describe and the
// Prometheus exposition.
type MetricType string

// Metric types.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Desc is one catalog entry of the registry: everything a scraper or a
// document needs to interpret the metric without reading the code.
type Desc struct {
	// Name is the exposition name (Prometheus conventions: snake_case,
	// counters end in _total).
	Name string
	// Type is the metric family type.
	Type MetricType
	// Unit names what one increment (or one observation) means.
	Unit string
	// Help is the one-line human description.
	Help string
	// Label is the label name of a CounterVec (empty otherwise);
	// LabelValues is its fixed, pre-registered value set.
	Label       string
	LabelValues []string
}

// Counter is a monotonically increasing int64. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas silently corrupt the
// monotonicity contract and are the caller's bug).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram is a fixed-boundary histogram: observation counts per bucket
// plus an exact count and a float64 sum. Boundaries are set at
// registration and never change, so Observe is a branch-free upper-bound
// scan plus two atomic adds — no locks, no allocations.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// CounterVec is a counter family over one label with a fixed,
// pre-registered value set (the label taxonomy is closed — e.g. the
// coordinator's upload-reject reasons). With resolves a value to its
// counter through a read-only map built at registration, so hot-path
// increments stay lock-free and alloc-free.
type CounterVec struct {
	name   string
	label  string
	order  []string
	series map[string]*Counter
}

// With returns the counter of one pre-registered label value; it panics on
// a value that was not registered (a closed taxonomy means an unknown
// value is a programming error).
func (v *CounterVec) With(value string) *Counter {
	c := v.series[value]
	if c == nil {
		panic(fmt.Sprintf("obs: counter vec %s has no label value %q", v.name, value))
	}
	return c
}

// metric is one registered entry: a Desc plus whichever concrete holder
// the type implies. Exactly one of the holders is non-nil (fn serves both
// function-backed counters and gauges).
type metric struct {
	desc Desc
	ctr  *Counter
	hist *Histogram
	vec  *CounterVec
	fn   func() int64
}

// Registry is a set of named metrics. The zero value is unusable; use
// NewRegistry. Registration takes the mutex; reads and increments never
// do.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry. Production code registers on
// Default; private registries exist for tests.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Default is the process-wide registry every package registers on and
// every exposition surface (Handler, -metrics dumps) reads.
var Default = NewRegistry()

// validName enforces the Prometheus exposition charset (plus our own
// convention of lowercase snake_case).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register installs m under its Desc name, panicking on duplicates or
// malformed names — registration is init-time code, and a silent rename
// or collision would corrupt the catalog forever.
func (r *Registry) register(m *metric) {
	if !validName(m.desc.Name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want lowercase snake_case)", m.desc.Name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.desc.Name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", m.desc.Name))
	}
	r.metrics[m.desc.Name] = m
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, unit, help string) *Counter {
	c := &Counter{}
	r.register(&metric{desc: Desc{Name: name, Type: TypeCounter, Unit: unit, Help: help}, ctr: c})
	return c
}

// NewHistogram registers and returns a fixed-boundary histogram. Bounds
// are upper bucket boundaries and must be strictly ascending.
func (r *Registry) NewHistogram(name, unit, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(&metric{desc: Desc{Name: name, Type: TypeHistogram, Unit: unit, Help: help}, hist: h})
	return h
}

// NewCounterVec registers a counter family over one label with the given
// fixed value set (sorted for canonical exposition).
func (r *Registry) NewCounterVec(name, unit, help, label string, values []string) *CounterVec {
	if label == "" || len(values) == 0 {
		panic(fmt.Sprintf("obs: counter vec %s needs a label and at least one value", name))
	}
	order := append([]string(nil), values...)
	sort.Strings(order)
	v := &CounterVec{name: name, label: label, order: order, series: make(map[string]*Counter, len(order))}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			panic(fmt.Sprintf("obs: counter vec %s label value %q registered twice", name, order[i]))
		}
	}
	for _, val := range order {
		v.series[val] = &Counter{}
	}
	r.register(&metric{desc: Desc{Name: name, Type: TypeCounter, Unit: unit, Help: help,
		Label: label, LabelValues: order}, vec: v})
	return v
}

// NewCounterFunc registers a counter whose value is read through fn at
// snapshot time — the mirror for subsystems that already keep their own
// atomic counts (the worldgen world cache) and should not pay a second
// increment on their hot path.
func (r *Registry) NewCounterFunc(name, unit, help string, fn func() int64) {
	r.register(&metric{desc: Desc{Name: name, Type: TypeCounter, Unit: unit, Help: help}, fn: fn})
}

// NewGaugeFunc registers a gauge read through fn at snapshot time: a
// mirror of a level the owning subsystem already keeps.
func (r *Registry) NewGaugeFunc(name, unit, help string, fn func() int64) {
	r.register(&metric{desc: Desc{Name: name, Type: TypeGauge, Unit: unit, Help: help}, fn: fn})
}

// Describe returns the catalog of every registered metric, sorted by name.
func (r *Registry) Describe() []Desc {
	r.mu.Lock()
	out := make([]Desc, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m.desc)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// snapshot returns the registered metrics sorted by name; values are read
// afterwards, lock-free.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].desc.Name < out[j].desc.Name })
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): sorted names, one HELP/TYPE header per family,
// canonical number formatting. The output for identical counter states is
// byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.snapshot() {
		d := m.desc
		help := d.Help
		if d.Unit != "" {
			help += " (unit: " + d.Unit + ")"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.Name, help, d.Name, d.Type); err != nil {
			return err
		}
		var err error
		switch {
		case m.ctr != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", d.Name, m.ctr.Load())
		case m.fn != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", d.Name, m.fn())
		case m.vec != nil:
			for _, val := range m.vec.order {
				if _, err = fmt.Fprintf(w, "%s{%s=%q} %d\n", d.Name, m.vec.label, val, m.vec.series[val].Load()); err != nil {
					return err
				}
			}
		case m.hist != nil:
			cum := int64(0)
			for i, b := range m.hist.bounds {
				cum += m.hist.buckets[i].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", d.Name, formatFloat(b), cum); err != nil {
					return err
				}
			}
			cum += m.hist.buckets[len(m.hist.bounds)].Load()
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", d.Name, cum); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n", d.Name, formatFloat(m.hist.Sum())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", d.Name, m.hist.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry as GET /metrics content.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Package-level conveniences over Default — what production packages call
// at init.

// NewCounter registers a counter on the Default registry.
func NewCounter(name, unit, help string) *Counter { return Default.NewCounter(name, unit, help) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, unit, help string, bounds []float64) *Histogram {
	return Default.NewHistogram(name, unit, help, bounds)
}

// NewCounterVec registers a counter family on the Default registry.
func NewCounterVec(name, unit, help, label string, values []string) *CounterVec {
	return Default.NewCounterVec(name, unit, help, label, values)
}

// NewCounterFunc registers a function-backed counter on Default.
func NewCounterFunc(name, unit, help string, fn func() int64) {
	Default.NewCounterFunc(name, unit, help, fn)
}

// NewGaugeFunc registers a function-backed gauge on Default.
func NewGaugeFunc(name, unit, help string, fn func() int64) {
	Default.NewGaugeFunc(name, unit, help, fn)
}

// Describe returns the Default registry's catalog.
func Describe() []Desc { return Default.Describe() }

// WritePrometheus writes the Default registry in text exposition format.
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

// Handler serves the Default registry (mount at GET /metrics).
func Handler() http.Handler { return Default.Handler() }

// DebugMux returns the standard debug surface every long-running process
// mounts: GET /metrics (the Default registry) plus the net/http/pprof
// handlers under /debug/pprof/. The coordinator serves it next to the
// lease API; workers and bench tools expose it via the shared -debug
// flag (cliutil).
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// formatFloat is the canonical float encoding of the exposition: shortest
// round-trip representation, so identical values are byte-identical.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
