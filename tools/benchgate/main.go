// Command benchgate is the CI benchmark regression gate: it parses the
// output of the benchmark smoke step and fails when the performance
// layer's allocation guarantees rot.
//
//	go run ./tools/benchgate -bench bench-smoke.txt -baseline BENCH_6.json
//
// Two classes of gate:
//
//   - The zero-alloc paths must report 0 allocs/op: the capture paths
//     (Render, RenderSweep, DepthCapture, Raycast, GroundHeight) and the
//     occupancy-map paths (InsertCloud and Blocked on the octree and the
//     local grid, each replaying a fixed capture sequence into a saturated
//     map). Any non-zero reading means a buffer started escaping again.
//     (The smoke step runs them for enough iterations that one-time
//     warm-up buffer growth amortizes to zero.)
//
//   - The closed-loop mission units — BenchmarkRun (inline runner),
//     BenchmarkRunPipelined (staged perception runner) and BenchmarkRunFast
//     (fast engine mode), the costs every evaluation grid multiplies —
//     must stay within -max-regress of the committed allocation snapshot.
//     Allocation counts are deterministic enough to gate on in shared CI
//     runners, unlike ns/op. BenchmarkRun doubles as the fast-off gate:
//     it flies with Timing.Fast unset, so its budget catches any cost the
//     fast mode leaks into the exact engine.
//
//   - The fleet dispatch overhead: BenchmarkDispatchOverhead reports the
//     loopback coordinator's wall-time cost over direct execution as an
//     overhead-% metric; it must stay at or below 5%. Like the fast-mode
//     ratio, both sides run in one process on one machine, so the
//     percentage is stable enough to gate where absolute ns/op is not.
//
//   - The fast-mode speedup: BenchmarkRunFast must run at least
//     -min-fast-speedup times faster than BenchmarkRun *within the same
//     smoke output*. The two benchmarks share machine, load and process,
//     so the ratio cancels the noise that makes absolute ns/op ungateable.
//
// Absolute timing numbers are parsed and reported but never gated — CI
// machines are too noisy for wall-clock thresholds; the committed snapshot
// plus the uploaded artifact keep the ns/op history reviewable by humans.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// zeroAllocBenchmarks are the capture and map paths the perf layer holds
// at zero steady-state allocations.
var zeroAllocBenchmarks = []string{
	"BenchmarkRender",
	"BenchmarkRenderSweep",
	"BenchmarkDepthCapture",
	"BenchmarkRaycast",
	"BenchmarkGroundHeight",
	"BenchmarkInsertCloud/Octree",
	"BenchmarkInsertCloud/LocalGrid",
	"BenchmarkBlocked/Octree",
	"BenchmarkBlocked/LocalGrid",
}

// gatedBenchmarks are the closed-loop units gated against the snapshot.
// BenchmarkRunFaultsOff is the nominal mission flown through the fault
// subsystem's disabled path; it shares BenchmarkRun's allocation budget,
// so the fault wiring cannot quietly tax every nominal campaign.
// BenchmarkRunFast is the same mission in fast engine mode; its alloc
// budget keeps the approximate kernels from buying speed with garbage.
// BenchmarkRunFleetOff is the nominal mission with the fleet knob
// normalized away; it shares BenchmarkRun's budget, so the fleet overlay
// wiring cannot quietly tax every single-drone campaign.
// BenchmarkRunTraceOff is the nominal mission with an explicitly nil
// flight recorder; it shares BenchmarkRun's budget, so the observability
// wiring cannot quietly tax every untraced campaign.
var gatedBenchmarks = []string{"BenchmarkRun", "BenchmarkRunPipelined", "BenchmarkRunFaultsOff", "BenchmarkRunFast", "BenchmarkRunFleetOff", "BenchmarkRunTraceOff"}

// Fast-speedup ratio gate operands: fastRatioNum must be at least
// -min-fast-speedup times faster than fastRatioDen in the same smoke file.
const (
	fastRatioDen = "BenchmarkRun"
	fastRatioNum = "BenchmarkRunFast"
)

// metricGates bound custom b.ReportMetric units against fixed ceilings.
// BenchmarkDispatchOverhead times the same campaign through the loopback
// fleet coordinator and directly through campaign.Execute at equal total
// engine workers; the lease/heartbeat/upload machinery must price in at
// no more than 5% — past that, -serve/-join would tax every fleet run.
var metricGates = []struct {
	Bench string
	Unit  string
	Max   float64
	Why   string
}{
	{"BenchmarkDispatchOverhead", "overhead-%", 5.0, "fleet dispatch overhead vs direct execution"},
}

// measurement is one parsed benchmark result line.
type measurement struct {
	NsOp     float64
	AllocsOp float64
	HasAlloc bool
	// Metrics holds every other "value unit" pair on the line, including
	// custom b.ReportMetric units like "overhead-%".
	Metrics map[string]float64
}

// baseline mirrors the slice of BENCH_2.json the gate needs.
type baseline struct {
	Benchmarks map[string]struct {
		After struct {
			AllocsOp float64 `json:"allocs_op"`
		} `json:"after"`
	} `json:"benchmarks"`
}

func main() {
	benchPath := flag.String("bench", "bench-smoke.txt", "go test -bench output to gate")
	basePath := flag.String("baseline", "BENCH_6.json", "committed benchmark snapshot")
	maxRegress := flag.Float64("max-regress", 0.10, "allowed fractional allocs/op regression for BenchmarkRun")
	minFastSpeedup := flag.Float64("min-fast-speedup", 1.8, "required BenchmarkRun/BenchmarkRunFast ns/op ratio (0 disables the gate)")
	flag.Parse()

	if err := run(*benchPath, *basePath, *maxRegress, *minFastSpeedup, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// run executes the gate and writes a human-readable verdict table.
func run(benchPath, basePath string, maxRegress, minFastSpeedup float64, w io.Writer) error {
	f, err := os.Open(benchPath)
	if err != nil {
		return err
	}
	defer f.Close()
	results, err := parseBench(f)
	if err != nil {
		return fmt.Errorf("parse %s: %w", benchPath, err)
	}

	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(baseBytes, &base); err != nil {
		return fmt.Errorf("parse %s: %w", basePath, err)
	}

	var violations []string

	for _, name := range zeroAllocBenchmarks {
		m, ok := results[name]
		switch {
		case !ok:
			// A silently missing benchmark must fail the gate, or a rename
			// would disable it forever.
			violations = append(violations, fmt.Sprintf("%s: missing from %s", name, benchPath))
		case !m.HasAlloc:
			violations = append(violations, fmt.Sprintf("%s: no allocs/op column (ReportAllocs lost?)", name))
		case m.AllocsOp != 0:
			violations = append(violations,
				fmt.Sprintf("%s: %.0f allocs/op, want 0 (zero-alloc capture path regressed)", name, m.AllocsOp))
		default:
			fmt.Fprintf(w, "ok   %-24s 0 allocs/op (%.0f ns/op)\n", name, m.NsOp)
		}
	}

	for _, name := range gatedBenchmarks {
		m, ok := results[name]
		b, okBase := base.Benchmarks[name]
		switch {
		case !ok:
			violations = append(violations, fmt.Sprintf("%s: missing from %s", name, benchPath))
		case !okBase:
			violations = append(violations, fmt.Sprintf("%s: missing from baseline %s", name, basePath))
		case !m.HasAlloc:
			violations = append(violations, fmt.Sprintf("%s: no allocs/op column (ReportAllocs lost?)", name))
		default:
			limit := b.After.AllocsOp * (1 + maxRegress)
			if m.AllocsOp > limit {
				violations = append(violations, fmt.Sprintf(
					"%s: %.0f allocs/op exceeds %.0f (baseline %.0f +%.0f%%) — the closed-loop hot path regressed",
					name, m.AllocsOp, limit, b.After.AllocsOp, maxRegress*100))
			} else {
				fmt.Fprintf(w, "ok   %-24s %.0f allocs/op within %.0f (baseline %.0f +%.0f%%), %.0f ns/op\n",
					name, m.AllocsOp, limit, b.After.AllocsOp, maxRegress*100, m.NsOp)
			}
		}
	}

	for _, g := range metricGates {
		m, ok := results[g.Bench]
		val, okMetric := m.Metrics[g.Unit]
		switch {
		case !ok:
			violations = append(violations, fmt.Sprintf("%s: missing from %s", g.Bench, benchPath))
		case !okMetric:
			violations = append(violations, fmt.Sprintf(
				"%s: no %s metric (ReportMetric call lost?)", g.Bench, g.Unit))
		case val > g.Max:
			violations = append(violations, fmt.Sprintf(
				"%s: %s = %.2f exceeds %.2f — %s regressed", g.Bench, g.Unit, val, g.Max, g.Why))
		default:
			fmt.Fprintf(w, "ok   %-24s %s = %.2f within %.2f\n", g.Bench, g.Unit, val, g.Max)
		}
	}

	if minFastSpeedup > 0 {
		den, okDen := results[fastRatioDen]
		num, okNum := results[fastRatioNum]
		switch {
		case !okDen || !okNum:
			violations = append(violations, fmt.Sprintf(
				"fast-speedup: need both %s and %s in %s", fastRatioDen, fastRatioNum, benchPath))
		case num.NsOp <= 0:
			violations = append(violations, fmt.Sprintf("fast-speedup: %s reports no ns/op", fastRatioNum))
		default:
			ratio := den.NsOp / num.NsOp
			if ratio < minFastSpeedup {
				violations = append(violations, fmt.Sprintf(
					"fast-speedup: %s/%s = %.2fx, want >= %.2fx (fast engine mode lost its headroom)",
					fastRatioDen, fastRatioNum, ratio, minFastSpeedup))
			} else {
				fmt.Fprintf(w, "ok   %-24s %.2fx >= %.2fx (%s %.0f ns/op vs %s %.0f ns/op)\n",
					"fast-speedup", ratio, minFastSpeedup, fastRatioDen, den.NsOp, fastRatioNum, num.NsOp)
			}
		}
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(w, "FAIL %s\n", v)
		}
		return fmt.Errorf("%d benchmark gate violation(s)", len(violations))
	}
	fmt.Fprintln(w, "benchmark gates passed")
	return nil
}

// parseBench extracts per-benchmark measurements from `go test -bench`
// output. Sub-benchmark names keep their slash part; the goroutine suffix
// (-8) is stripped. Lines without a benchmark shape are ignored, so the
// file may contain multiple concatenated runs plus test chatter.
func parseBench(r io.Reader) (map[string]measurement, error) {
	out := make(map[string]measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m measurement
		seen := false
		for i := 2; i+1 < len(fields); i++ {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsOp = val
				seen = true
			case "allocs/op":
				m.AllocsOp = val
				m.HasAlloc = true
				seen = true
			default:
				if m.Metrics == nil {
					m.Metrics = make(map[string]float64)
				}
				m.Metrics[fields[i+1]] = val
				seen = true
			}
		}
		if seen {
			out[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}
