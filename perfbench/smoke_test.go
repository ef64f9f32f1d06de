package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"

	"repro/internal/campaign"
)

// small shrinks a workload to its first cell so that a smoke pass flies a
// mission or two.
func small(w workload) workload {
	grid := w.grid
	w.grid = func() campaign.Spec {
		s := grid()
		s.Maps, s.Scenarios, s.Generations, s.Repeats = s.Maps[:1], s.Scenarios[:1], s.Generations[:1], 1
		return s
	}
	return w
}

func smokeOptions(t *testing.T, seed int64, ref *digests) options {
	return options{seed: seed, seconds: 0.001, root: "..", workdir: t.TempDir(), ref: ref, log: io.Discard}
}

// TestWrongReferenceFailsEveryWorkload: a pass whose digests differ from
// the reference fails all its runs, and the command exits nonzero.
func TestWrongReferenceFailsEveryWorkload(t *testing.T) {
	wrong := &digests{Aggregates: "0000", Results: "0000"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(context.Background(), small(w), smokeOptions(t, defaultSeed, wrong))
			if err != nil {
				t.Fatal(err)
			}
			if r.Correct || r.Attempted < minPasses || r.Failed != r.Attempted {
				t.Errorf("wrong reference: correct %v, %d of %d runs failed; want every run failed",
					r.Correct, r.Failed, r.Attempted)
			}
			if exitCode(r) == 0 {
				t.Error("wrong reference: exit code 0")
			}
		})
	}
}

// TestSmokeEveryWorkload runs each reduced workload at a non-default seed,
// where passes are checked against each other, with tracing off and on.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(context.Background(), small(w), smokeOptions(t, 5, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || exitCode(r) != 0 {
				t.Fatalf("end to end: correct %v, %d of %d runs failed", r.Correct, r.Failed, r.Attempted)
			}
			for _, name := range []string{"runs_per_s", "cpu_ms_per_run", "peak_rss_mb", "setup_s"} {
				if m, ok := r.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", name, m)
				}
			}

			tr, err := runTraced(context.Background(), small(w), smokeOptions(t, 5, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.Failed != 0 {
				t.Fatalf("traced: correct %v, %d of %d runs failed", tr.Correct, tr.Failed, tr.Attempted)
			}
			if len(tr.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(tr.Metrics), len(perLayer))
			}
			for _, name := range []string{"trace.traced_runs_per_s", "worldgen.generate_ms", "runtime.allocs_per_run"} {
				if tr.Metrics[name].Value <= 0 {
					t.Errorf("traced metric %s = %v, want a positive value", name, tr.Metrics[name].Value)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTheCommand keeps BENCHMARK.json's workloads and
// metrics equal to what the command runs and prints.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, b.Workloads[i].Name, w.name)
		}
	}
	wantE2E := []named{{"runs_per_s", "1/s"}, {"cpu_ms_per_run", "ms"}, {"peak_rss_mb", "MiB"}, {"setup_s", "s"}}
	if len(b.EndToEnd) != len(wantE2E) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(wantE2E))
	}
	for i, m := range wantE2E {
		if b.EndToEnd[i] != m {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, command %+v", i, b.EndToEnd[i], m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i] != (named{m.name, m.unit}) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, command %+v", i, b.PerLayer[i], m)
		}
	}
}
