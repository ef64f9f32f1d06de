package obs

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// cover_test exercises the Default-registry conveniences and the small
// error/edge branches the main suites reach through registries of their
// own.

func TestDefaultRegistryConveniences(t *testing.T) {
	c := NewCounter("test_default_ops_total", "ops", "default-registry counter")
	c.Inc()
	h := NewHistogram("test_default_lat_seconds", "s", "default-registry histogram", []float64{1})
	h.Observe(0.5)
	v := NewCounterVec("test_default_by_kind_total", "ops", "default-registry vec", "kind", []string{"a"})
	v.With("a").Inc()
	NewCounterFunc("test_default_fn_total", "ops", "default-registry func counter", func() int64 { return 9 })
	NewGaugeFunc("test_default_fn_level", "items", "default-registry func gauge", func() int64 { return 4 })

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"test_default_ops_total 1",
		"test_default_lat_seconds_count 1",
		`test_default_by_kind_total{kind="a"} 1`,
		"test_default_fn_total 9",
		"test_default_fn_level 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Default exposition missing %q", want)
		}
	}

	found := false
	for _, d := range Describe() {
		if d.Name == "test_default_ops_total" {
			found = true
		}
	}
	if !found {
		t.Error("Describe() lost the Default-registered counter")
	}

	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "test_default_ops_total 1") {
		t.Errorf("Default Handler: code %d, body %.120q", rec.Code, rec.Body.String())
	}
}

func TestNewTraceClampsCapacity(t *testing.T) {
	tr := NewTrace(0)
	tr.Record(Event{Tick: 1, Kind: "capture"})
	tr.Record(Event{Tick: 2, Kind: "capture"})
	if ev := tr.Events(); len(ev) != 1 || ev[0].Tick != 2 {
		t.Fatalf("capacity<1 should clamp to a 1-slot ring, got %+v", ev)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
}

// failAfter errors once n bytes have been accepted.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("writer full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriteRunTraceSurfacesWriterErrors(t *testing.T) {
	events := []Event{{Tick: 0, Kind: "capture"}, {Tick: 1, Kind: "end", Detail: "success"}}
	if err := WriteRunTrace(&failAfter{}, RunHeader{}, events, 0); err == nil {
		t.Fatal("header write error swallowed")
	}
	if err := WriteRunTrace(&failAfter{n: 100}, RunHeader{}, events, 0); err == nil {
		t.Fatal("event write error swallowed")
	}
	if err := WriteRunTrace(io.Discard, RunHeader{}, events, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFormatEventShapes(t *testing.T) {
	cases := []struct {
		ev   Event
		want []string
	}{
		{Event{Tick: 5, T: 1.5, Kind: "fault", Detail: "gps-loss", Phase: PhaseEnter},
			[]string{"FAULT", "enter", "gps-loss"}},
		{Event{Tick: 9, T: 2.5, Kind: "fault", Detail: "gps-loss", Phase: PhaseExit},
			[]string{"fault", "exit", "gps-loss"}},
		{Event{Tick: 3, T: 0.5, Member: 2, Kind: "separation", Detail: "near-miss", Value: 1},
			[]string{"[m2]", "separation", "near-miss", "(1)"}},
	}
	for _, c := range cases {
		got := FormatEvent(c.ev)
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("FormatEvent(%+v) = %q, missing %q", c.ev, got, w)
			}
		}
	}
}

func TestCheckTraceTimelineWithDroppedHeader(t *testing.T) {
	var file bytes.Buffer
	events := []Event{{Tick: 0, Kind: "capture", Detail: "depth"}, {Tick: 4, Kind: "end", Detail: "success"}}
	if err := WriteRunTrace(&file, RunHeader{Run: 7, Gen: "MLS-V1", Seed: 3}, events, 12); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	st, err := CheckTrace(bytes.NewReader(file.Bytes()), CheckOptions{Timeline: true, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	// A dropped-events header waives the declared-count and pairing
	// checks; the block itself is still well formed.
	if st.Runs != 1 || st.Events != 2 || st.Violations != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !strings.Contains(out.String(), "12 dropped") {
		t.Errorf("timeline does not report the dropped count:\n%s", out.String())
	}
}
