package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var level atomic.Int64
	r.NewGaugeFunc("test_level", "items", "test gauge", level.Load)
	level.Store(7)
	level.Add(-2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE test_level gauge\n", "test_level 5\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_duration_seconds", "s", "test histogram", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 16.5 {
		t.Fatalf("sum = %g, want 16.5", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_duration_seconds test histogram (unit: s)
# TYPE test_duration_seconds histogram
test_duration_seconds_bucket{le="1"} 1
test_duration_seconds_bucket{le="2"} 3
test_duration_seconds_bucket{le="5"} 4
test_duration_seconds_bucket{le="+Inf"} 5
test_duration_seconds_sum 16.5
test_duration_seconds_count 5
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", b.String(), want)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_rejects_total", "uploads", "test vec", "reason", []string{"late", "conflict"})
	v.With("late").Inc()
	v.With("late").Inc()
	v.With("conflict").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Values sort for canonical exposition.
	want := `# HELP test_rejects_total test vec (unit: uploads)
# TYPE test_rejects_total counter
test_rejects_total{reason="conflict"} 1
test_rejects_total{reason="late"} 2
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", b.String(), want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("With on an unregistered label value should panic")
		}
	}()
	v.With("unknown")
}

func TestFuncMetricsAndDescribe(t *testing.T) {
	r := NewRegistry()
	r.NewCounterFunc("test_mirror_total", "hits", "mirrored counter", func() int64 { return 42 })
	r.NewGaugeFunc(("test_resident"), "worlds", "mirrored gauge", func() int64 { return 3 })
	r.NewCounter("test_a_total", "ops", "sorts first")
	descs := r.Describe()
	if len(descs) != 3 {
		t.Fatalf("Describe len = %d, want 3", len(descs))
	}
	for i := 1; i < len(descs); i++ {
		if descs[i-1].Name >= descs[i].Name {
			t.Fatalf("Describe not sorted: %q before %q", descs[i-1].Name, descs[i].Name)
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"test_mirror_total 42\n", "test_resident 3\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestDeterministicSnapshot(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_b_total", "ops", "b").Add(2)
	r.NewCounter("test_a_total", "ops", "a").Add(1)
	r.NewGaugeFunc("test_c", "items", "c", func() int64 { return 9 })
	var b1, b2 strings.Builder
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("two snapshots of identical state differ")
	}
	if !strings.Contains(b1.String(), "test_a_total 1\n# HELP test_b_total") ||
		!strings.Contains(b1.String(), "test_b_total 2\n# HELP test_c c (unit: items)\n# TYPE test_c gauge\ntest_c 9\n") {
		t.Fatalf("names not sorted:\n%s", b1.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := map[string]func(r *Registry){
		"duplicate": func(r *Registry) {
			r.NewCounter("test_dup_total", "ops", "x")
			r.NewCounter("test_dup_total", "ops", "x")
		},
		"bad name":      func(r *Registry) { r.NewCounter("Bad-Name", "ops", "x") },
		"empty name":    func(r *Registry) { r.NewCounter("", "ops", "x") },
		"digit start":   func(r *Registry) { r.NewCounter("1bad", "ops", "x") },
		"vec no label":  func(r *Registry) { r.NewCounterVec("test_v_total", "x", "x", "", nil) },
		"vec dup value": func(r *Registry) { r.NewCounterVec("test_v_total", "x", "x", "k", []string{"a", "a"}) },
		"hist bounds":   func(r *Registry) { r.NewHistogram("test_h", "s", "x", []float64{2, 1}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			fn(NewRegistry())
		})
	}
}

// TestConcurrentIncrements is the -race stress for the hot-path contract:
// many goroutines hammering the same counters, gauges, histograms, and
// vec series while snapshots run concurrently.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops", "x")
	var level atomic.Int64
	r.NewGaugeFunc("test_level", "items", "x", level.Load)
	h := r.NewHistogram("test_lat", "s", "x", []float64{1, 10, 100})
	v := r.NewCounterVec("test_tag_total", "ops", "x", "tag", []string{"a", "b"})
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				level.Add(1)
				h.Observe(float64(i % 200))
				if w%2 == 0 {
					v.With("a").Inc()
				} else {
					v.With("b").Inc()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Load() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Load(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if v.With("a").Load()+v.With("b").Load() != workers*per {
		t.Fatalf("vec total = %d, want %d", v.With("a").Load()+v.With("b").Load(), workers*per)
	}
}

func TestHandlerAndDebugMux(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_ops_total", "ops", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), "test_ops_total 1") {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}
	// DebugMux serves the Default registry plus pprof.
	mux := DebugMux()
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/pprof/cmdline = %d", rec.Code)
	}
}
