package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCampaign/workers=1-4     1   5011022841 ns/op
BenchmarkCampaign/workers=4-4     1   1377003199 ns/op
BenchmarkRun-4                    5    302838874 ns/op   8618862 B/op   11771 allocs/op
BenchmarkRunPipelined-4           5    340362629 ns/op   8172180 B/op   11590 allocs/op
BenchmarkRunFaultsOff-4           5    315340870 ns/op   8514950 B/op   11328 allocs/op
BenchmarkRunFast-4                5    149000000 ns/op   8665360 B/op   10258 allocs/op
BenchmarkRunFleetOff-4            5    305000000 ns/op   8618870 B/op   11772 allocs/op
BenchmarkRunTraceOff-4            5    304000000 ns/op   8618868 B/op   11773 allocs/op
BenchmarkDispatchOverhead-4       1    812000000 ns/op      1.73 overhead-%
BenchmarkCellAffinity-4         100       581034 ns/op      41.7 affine-hit-%      8.3 random-hit-%
BenchmarkRender-4              1000       408527 ns/op       524 B/op       0 allocs/op
BenchmarkRenderSweep-4          200       433504 ns/op         4 B/op       0 allocs/op
BenchmarkDepthCapture-4        1000        30587 ns/op        58 B/op       0 allocs/op
BenchmarkGroundHeight-4        1000           12.65 ns/op      0 B/op       0 allocs/op
BenchmarkInsertCloud/Octree-4           1000    405120 ns/op     0 B/op       0 allocs/op
BenchmarkInsertCloud/LocalGrid-4        1000    190575 ns/op     0 B/op       0 allocs/op
BenchmarkBlocked/Octree-4               1000     15429 ns/op     0 B/op       0 allocs/op
BenchmarkBlocked/LocalGrid-4            1000     14694 ns/op     0 B/op       0 allocs/op
PASS
ok  	repro	42.000s
`

const baselineJSON = `{
  "benchmarks": {
    "BenchmarkRun": {
      "before": {"ns_op": 706667852, "bytes_op": 119566926, "allocs_op": 211321},
      "after": {"ns_op": 301838874, "bytes_op": 8618862, "allocs_op": 11771}
    },
    "BenchmarkRunPipelined": {
      "after": {"ns_op": 340362629, "bytes_op": 8172180, "allocs_op": 11590}
    },
    "BenchmarkRunFaultsOff": {
      "after": {"ns_op": 315340870, "bytes_op": 8514950, "allocs_op": 11771}
    },
    "BenchmarkRunFast": {
      "after": {"ns_op": 149000000, "bytes_op": 8665360, "allocs_op": 10258}
    },
    "BenchmarkRunFleetOff": {
      "after": {"ns_op": 305000000, "bytes_op": 8618870, "allocs_op": 11772}
    },
    "BenchmarkRunTraceOff": {
      "after": {"ns_op": 304000000, "bytes_op": 8618868, "allocs_op": 11773}
    }
  }
}`

// gate writes the fixture files and runs the gate, returning its error
// and output.
func gate(t *testing.T, bench, baseline string, maxRegress float64) (error, string) {
	t.Helper()
	dir := t.TempDir()
	bp := filepath.Join(dir, "bench-smoke.txt")
	blp := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(bp, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blp, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run(bp, blp, maxRegress, 1.8, &sb)
	return err, sb.String()
}

func TestGatePassesHealthyRun(t *testing.T) {
	err, out := gate(t, goodBench, baselineJSON, 0.10)
	if err != nil {
		t.Fatalf("healthy run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "benchmark gates passed") {
		t.Errorf("missing pass verdict:\n%s", out)
	}
}

// TestGateFailsInjectedAllocRegression is the acceptance check: an
// injected allocs/op regression (>10% over the committed snapshot) must
// fail the job.
func TestGateFailsInjectedAllocRegression(t *testing.T) {
	injected := strings.Replace(goodBench, "11771 allocs/op", "13500 allocs/op", 1)
	err, out := gate(t, injected, baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("injected +15%% alloc regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkRun") || !strings.Contains(out, "regressed") {
		t.Errorf("violation message unclear:\n%s", out)
	}
	// Right at the limit passes (the limit is baseline * 1.10).
	atLimit := strings.Replace(goodBench, "11771 allocs/op", "12948 allocs/op", 1)
	if err, out := gate(t, atLimit, baselineJSON, 0.10); err != nil {
		t.Errorf("within-limit allocs failed: %v\n%s", err, out)
	}
}

// TestGateCoversPipelinedRun pins the second gated closed-loop unit: a
// regression in the staged runner's allocations must fail, and dropping
// the benchmark from the smoke run must fail too (a rename or a lost
// -bench pattern would otherwise disable the gate forever).
func TestGateCoversPipelinedRun(t *testing.T) {
	injected := strings.Replace(goodBench, "11590 allocs/op", "13500 allocs/op", 1)
	err, out := gate(t, injected, baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("pipelined alloc regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkRunPipelined") {
		t.Errorf("violation does not name the pipelined benchmark:\n%s", out)
	}

	var kept []string
	for _, line := range strings.Split(goodBench, "\n") {
		if strings.HasPrefix(line, "BenchmarkRunPipelined") {
			continue
		}
		kept = append(kept, line)
	}
	err, out = gate(t, strings.Join(kept, "\n"), baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("missing pipelined benchmark passed the gate:\n%s", out)
	}
}

// TestGateCoversFaultsOffRun pins the third gated closed-loop unit: the
// fault subsystem's disabled path shares BenchmarkRun's allocation budget,
// and losing the benchmark from the smoke run must fail the gate.
func TestGateCoversFaultsOffRun(t *testing.T) {
	injected := strings.Replace(goodBench, "11328 allocs/op", "13500 allocs/op", 1)
	err, out := gate(t, injected, baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("faults-off alloc regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkRunFaultsOff") {
		t.Errorf("violation does not name the faults-off benchmark:\n%s", out)
	}

	var kept []string
	for _, line := range strings.Split(goodBench, "\n") {
		if strings.HasPrefix(line, "BenchmarkRunFaultsOff") {
			continue
		}
		kept = append(kept, line)
	}
	err, out = gate(t, strings.Join(kept, "\n"), baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("missing faults-off benchmark passed the gate:\n%s", out)
	}
}

// TestGateCoversFastRun pins the fast-engine gates: an alloc regression in
// fast mode fails, a fast mission that lost its speed headroom fails, and
// dropping the benchmark from the smoke run fails (it would silently
// disable both the alloc and the ratio gate).
func TestGateCoversFastRun(t *testing.T) {
	injected := strings.Replace(goodBench, "10258 allocs/op", "13500 allocs/op", 1)
	err, out := gate(t, injected, baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("fast-mode alloc regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkRunFast") {
		t.Errorf("violation does not name the fast benchmark:\n%s", out)
	}

	// Fast mode at 1.2x instead of >= 1.8x must fail the ratio gate.
	slow := strings.Replace(goodBench, "5    149000000 ns/op   8665360 B/op", "5    252000000 ns/op   8665360 B/op", 1)
	if slow == goodBench {
		t.Fatal("fixture drifted: BenchmarkRunFast line not found")
	}
	err, out = gate(t, slow, baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("1.2x fast mode passed the >=1.8x ratio gate:\n%s", out)
	}
	if !strings.Contains(out, "fast-speedup") {
		t.Errorf("violation does not name the ratio gate:\n%s", out)
	}

	var kept []string
	for _, line := range strings.Split(goodBench, "\n") {
		if strings.HasPrefix(line, "BenchmarkRunFast") {
			continue
		}
		kept = append(kept, line)
	}
	err, out = gate(t, strings.Join(kept, "\n"), baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("missing fast benchmark passed the gate:\n%s", out)
	}
}

// TestGateCoversFleetOffRun pins the fleet subsystem's off-state gate:
// the solo engine with the fleet knob normalized away shares
// BenchmarkRun's allocation budget, and losing the benchmark from the
// smoke run must fail the gate.
func TestGateCoversFleetOffRun(t *testing.T) {
	injected := strings.Replace(goodBench, "11772 allocs/op", "13500 allocs/op", 1)
	if injected == goodBench {
		t.Fatal("fixture drifted: BenchmarkRunFleetOff line not found")
	}
	err, out := gate(t, injected, baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("fleet-off alloc regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkRunFleetOff") {
		t.Errorf("violation does not name the fleet-off benchmark:\n%s", out)
	}

	var kept []string
	for _, line := range strings.Split(goodBench, "\n") {
		if strings.HasPrefix(line, "BenchmarkRunFleetOff") {
			continue
		}
		kept = append(kept, line)
	}
	err, out = gate(t, strings.Join(kept, "\n"), baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("missing fleet-off benchmark passed the gate:\n%s", out)
	}
}

// TestGateCoversTraceOffRun pins the observability off-state gate: the
// mission with an explicitly nil flight recorder shares BenchmarkRun's
// allocation budget, and losing the benchmark from the smoke run must
// fail the gate.
func TestGateCoversTraceOffRun(t *testing.T) {
	injected := strings.Replace(goodBench, "11773 allocs/op", "13500 allocs/op", 1)
	if injected == goodBench {
		t.Fatal("fixture drifted: BenchmarkRunTraceOff line not found")
	}
	err, out := gate(t, injected, baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("trace-off alloc regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkRunTraceOff") {
		t.Errorf("violation does not name the trace-off benchmark:\n%s", out)
	}

	var kept []string
	for _, line := range strings.Split(goodBench, "\n") {
		if strings.HasPrefix(line, "BenchmarkRunTraceOff") {
			continue
		}
		kept = append(kept, line)
	}
	err, out = gate(t, strings.Join(kept, "\n"), baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("missing trace-off benchmark passed the gate:\n%s", out)
	}
}

// TestGateCoversDispatchOverhead pins the fleet transport's price gate:
// an overhead-% above the 5% ceiling must fail, right at the ceiling
// passes, and losing the benchmark or its ReportMetric call from the
// smoke run must fail too.
func TestGateCoversDispatchOverhead(t *testing.T) {
	injected := strings.Replace(goodBench, "1.73 overhead-%", "7.20 overhead-%", 1)
	if injected == goodBench {
		t.Fatal("fixture drifted: BenchmarkDispatchOverhead line not found")
	}
	err, out := gate(t, injected, baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("7.2%% dispatch overhead passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkDispatchOverhead") || !strings.Contains(out, "overhead-%") {
		t.Errorf("violation does not name the overhead gate:\n%s", out)
	}

	atLimit := strings.Replace(goodBench, "1.73 overhead-%", "5.00 overhead-%", 1)
	if err, out := gate(t, atLimit, baselineJSON, 0.10); err != nil {
		t.Errorf("at-ceiling overhead failed: %v\n%s", err, out)
	}

	noMetric := strings.Replace(goodBench, "      1.73 overhead-%", "", 1)
	if err, out := gate(t, noMetric, baselineJSON, 0.10); err == nil {
		t.Fatalf("missing overhead-%% metric passed the gate:\n%s", out)
	}

	var kept []string
	for _, line := range strings.Split(goodBench, "\n") {
		if strings.HasPrefix(line, "BenchmarkDispatchOverhead") {
			continue
		}
		kept = append(kept, line)
	}
	if err, out := gate(t, strings.Join(kept, "\n"), baselineJSON, 0.10); err == nil {
		t.Fatalf("missing dispatch benchmark passed the gate:\n%s", out)
	}
}

func TestGateFailsNonZeroCapturePath(t *testing.T) {
	// Target the Render line precisely: a bare "0 allocs/op" substring
	// also matches inside larger counts like "11590 allocs/op".
	broken := strings.Replace(goodBench, "524 B/op       0 allocs/op", "524 B/op       3 allocs/op", 1)
	if broken == goodBench {
		t.Fatal("fixture drifted: BenchmarkRender line not found")
	}
	err, out := gate(t, broken, baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("non-zero capture path passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkRender: 3 allocs/op") {
		t.Errorf("violation does not name the regressed capture path:\n%s", out)
	}
}

// TestGateCoversMapPaths pins the occupancy-map entries: an allocating
// InsertCloud or Blocked fails, and so does a sub-benchmark dropped from
// the smoke run.
func TestGateCoversMapPaths(t *testing.T) {
	for _, c := range []struct{ line, name string }{
		{"BenchmarkInsertCloud/Octree-4           1000    405120 ns/op     0 B/op       0 allocs/op", "BenchmarkInsertCloud/Octree"},
		{"BenchmarkInsertCloud/LocalGrid-4        1000    190575 ns/op     0 B/op       0 allocs/op", "BenchmarkInsertCloud/LocalGrid"},
		{"BenchmarkBlocked/Octree-4               1000     15429 ns/op     0 B/op       0 allocs/op", "BenchmarkBlocked/Octree"},
		{"BenchmarkBlocked/LocalGrid-4            1000     14694 ns/op     0 B/op       0 allocs/op", "BenchmarkBlocked/LocalGrid"},
	} {
		checkZeroAllocEntry(t, c.line, c.name)
	}
}

// TestGateCoversRenderSweep pins the campaign-like render entry the same
// way: an allocating frame sweep fails, and so does a smoke run without it.
func TestGateCoversRenderSweep(t *testing.T) {
	checkZeroAllocEntry(t, "BenchmarkRenderSweep-4          200       433504 ns/op         4 B/op       0 allocs/op", "BenchmarkRenderSweep")
}

// checkZeroAllocEntry asserts that the gate names and fails the zero-alloc
// benchmark on the fixture line when it reports 2 allocs/op, and when the
// line is missing.
func checkZeroAllocEntry(t *testing.T, line, name string) {
	t.Helper()
	if !strings.Contains(goodBench, line) {
		t.Fatalf("fixture drifted: %s line not found", name)
	}
	allocating := strings.Replace(goodBench, line, strings.Replace(line, " 0 allocs/op", " 2 allocs/op", 1), 1)
	if err, out := gate(t, allocating, baselineJSON, 0.10); err == nil || !strings.Contains(out, name+": 2 allocs/op") {
		t.Errorf("allocating %s passed the gate or went unnamed:\n%s", name, out)
	}
	missing := strings.Replace(goodBench, line+"\n", "", 1)
	if err, out := gate(t, missing, baselineJSON, 0.10); err == nil || !strings.Contains(out, name+": missing") {
		t.Errorf("missing %s passed the gate or went unnamed:\n%s", name, out)
	}
}

func TestGateFailsMissingBenchmark(t *testing.T) {
	var kept []string
	for _, line := range strings.Split(goodBench, "\n") {
		if strings.HasPrefix(line, "BenchmarkGroundHeight") {
			continue
		}
		kept = append(kept, line)
	}
	err, out := gate(t, strings.Join(kept, "\n"), baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("missing benchmark passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkGroundHeight: missing") {
		t.Errorf("violation does not name the missing benchmark:\n%s", out)
	}
}

// pairedBench is goodBench with its single BenchmarkRun/BenchmarkRunFast
// pair replaced by back-to-back pairs, BenchmarkRun at 300 ms/op and
// BenchmarkRunFast at 300 ms/op divided by each pair's speedup.
func pairedBench(t *testing.T, speedups ...float64) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.Split(goodBench, "\n") {
		if !strings.HasPrefix(line, "BenchmarkRun-") && !strings.HasPrefix(line, "BenchmarkRunFast-") {
			b.WriteString(line + "\n")
		}
	}
	for _, s := range speedups {
		fmt.Fprintf(&b, "BenchmarkRun-4                    5    300000000 ns/op   8618862 B/op   11771 allocs/op\n")
		fmt.Fprintf(&b, "BenchmarkRunFast-4                5    %.0f ns/op   8665360 B/op   10258 allocs/op\n", 300e6/s)
	}
	return b.String()
}

// TestGateFastSpeedupMedianOfPairs pins the paired ratio gate: one slow
// pair among five passes when the median holds, a median under 1.8x
// fails and names every pair, a single pair still gates alone, and
// unpaired readings fail.
func TestGateFastSpeedupMedianOfPairs(t *testing.T) {
	if err, out := gate(t, pairedBench(t, 2.5, 1.3, 2.1, 2.4, 1.9), baselineJSON, 0.10); err != nil {
		t.Errorf("one bad pair with a 2.10x median failed: %v\n%s", err, out)
	} else if !strings.Contains(out, "median 2.10x >= 1.80x over 5") {
		t.Errorf("ok line does not report the median of 5 pairs:\n%s", out)
	}
	err, out := gate(t, pairedBench(t, 2.5, 1.3, 1.7, 1.6, 1.9), baselineJSON, 0.10)
	if err == nil {
		t.Fatalf("a 1.70x median passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "median BenchmarkRun/BenchmarkRunFast = 1.70x over 5 pairs (2.50 1.30 1.70 1.60 1.90)") {
		t.Errorf("violation does not report the median and the pairs:\n%s", out)
	}
	if err, out := gate(t, pairedBench(t, 1.85), baselineJSON, 0.10); err != nil {
		t.Errorf("a single 1.85x pair failed: %v\n%s", err, out)
	}
	if err, out := gate(t, pairedBench(t, 1.75), baselineJSON, 0.10); err == nil {
		t.Errorf("a single 1.75x pair passed:\n%s", out)
	}
	unpaired := pairedBench(t, 2.5, 2.5) + "BenchmarkRun-4   5   300000000 ns/op   8618862 B/op   11771 allocs/op\n"
	if err, out := gate(t, unpaired, baselineJSON, 0.10); err == nil || !strings.Contains(out, "3 BenchmarkRun readings but 2 BenchmarkRunFast") {
		t.Errorf("unpaired readings passed or went unnamed: %v\n%s", err, out)
	}
}

// TestGateAllocsEveryReading pins that the allocation gates read every
// reading of a repeated benchmark, not just the last: one over-budget
// BenchmarkRunFast pair among five fails.
func TestGateAllocsEveryReading(t *testing.T) {
	bench := pairedBench(t, 2, 2, 2, 2, 2)
	i := strings.Index(bench, "10258 allocs/op")
	bench = bench[:i] + "13500 allocs/op" + bench[i+len("10258 allocs/op"):]
	err, out := gate(t, bench, baselineJSON, 0.10)
	if err == nil || !strings.Contains(out, "BenchmarkRunFast: 13500 allocs/op exceeds") {
		t.Errorf("one allocating reading among five passed or went unnamed: %v\n%s", err, out)
	}
}

func TestGateFailsMissingAllocColumn(t *testing.T) {
	noalloc := strings.Replace(goodBench,
		"BenchmarkRun-4                    5    302838874 ns/op   8618862 B/op   11771 allocs/op",
		"BenchmarkRun-4                    5    302838874 ns/op", 1)
	err, _ := gate(t, noalloc, baselineJSON, 0.10)
	if err == nil {
		t.Fatal("missing allocs/op column passed the gate")
	}
}

func TestParseBench(t *testing.T) {
	res, err := parseBench(strings.NewReader(goodBench))
	if err != nil {
		t.Fatal(err)
	}
	if r := res["BenchmarkRun"]; len(r) != 1 || !r[0].HasAlloc || r[0].AllocsOp != 11771 || r[0].NsOp != 302838874 {
		t.Errorf("BenchmarkRun parsed as %+v", r)
	}
	if r := res["BenchmarkGroundHeight"]; len(r) != 1 || r[0].NsOp != 12.65 || r[0].AllocsOp != 0 || !r[0].HasAlloc {
		t.Errorf("BenchmarkGroundHeight parsed as %+v", r)
	}
	// Sub-benchmarks keep their slash names and tolerate missing alloc
	// columns.
	if r, ok := res["BenchmarkCampaign/workers=4"]; !ok || len(r) != 1 || r[0].HasAlloc {
		t.Errorf("BenchmarkCampaign/workers=4 parsed as %+v (ok=%v)", r, ok)
	}
	// Repeated benchmarks keep every reading, in file order.
	res, err = parseBench(strings.NewReader(goodBench + "BenchmarkRun-4   5   1 ns/op   2 B/op   3 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r := res["BenchmarkRun"]; len(r) != 2 || r[0].NsOp != 302838874 || r[1].NsOp != 1 || r[1].AllocsOp != 3 {
		t.Errorf("repeated BenchmarkRun parsed as %+v", r)
	}
	if _, err := parseBench(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input did not error")
	}
}

// TestSnapshotRecordedFromSmoke: -write records a smoke file as the
// snapshot the gate reads — each gated benchmark's median ns/op and
// allocs/op, its unit text carried over from the previous snapshot — and
// that snapshot
// passes the file it was recorded from, while a reading one allocation
// over its +10% budget fails.
func TestSnapshotRecordedFromSmoke(t *testing.T) {
	dir := t.TempDir()
	smoke := filepath.Join(dir, "bench-smoke.txt")
	// Two more BenchmarkRun/BenchmarkRunFast pairs, so the medians are
	// taken over three readings.
	bench := goodBench + strings.Repeat(
		"BenchmarkRun-4    5    310000000 ns/op   8618000 B/op   11780 allocs/op\n"+
			"BenchmarkRunFast-4    5    150000000 ns/op   8665000 B/op   10260 allocs/op\n", 2)
	prev := filepath.Join(dir, "BENCH_prev.json")
	snap := filepath.Join(dir, "BENCH_next.json")
	if err := os.WriteFile(smoke, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prev, []byte(`{"benchmarks": {"BenchmarkRun": {"unit": "one mission"}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(smoke, prev, snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	br := got.Benchmarks["BenchmarkRun"]
	if br.Unit != "one mission" || br.After.AllocsOp != 11780 || br.After.NsOp != 310000000 {
		t.Fatalf("BenchmarkRun entry %+v, want the carried unit and the median of 3 readings", br)
	}
	for _, name := range gatedBenchmarks {
		if _, ok := got.Benchmarks[name]; !ok {
			t.Errorf("snapshot lacks gated benchmark %s", name)
		}
	}

	var out strings.Builder
	if err := run(smoke, snap, 0.10, 1.8, &out); err != nil {
		t.Fatalf("the snapshot fails the smoke file it was recorded from: %v\n%s", err, out.String())
	}
	budget := int(math.Floor(br.After.AllocsOp * 1.10))
	for allocs, pass := range map[int]bool{budget: true, budget + 1: false} {
		over := strings.Replace(bench, "11771 allocs/op", fmt.Sprintf("%d allocs/op", allocs), 1)
		if err := os.WriteFile(smoke, []byte(over), 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		err := run(smoke, snap, 0.10, 1.8, &out)
		if (err == nil) != pass {
			t.Errorf("BenchmarkRun at %d allocs/op (budget %d): err = %v\n%s", allocs, budget, err, out.String())
		}
	}
}
