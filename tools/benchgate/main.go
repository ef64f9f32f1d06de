// Command benchgate is the CI benchmark regression gate: it parses the
// output of the benchmark smoke step and fails when the performance
// layer's allocation guarantees rot.
//
//	go run ./tools/benchgate -bench bench-smoke.txt -baseline BENCH_7.json
//
// Two classes of gate:
//
//   - The zero-alloc paths must report 0 allocs/op: the capture paths
//     (Render, RenderSweep, DepthCapture, GroundHeight) and the
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
//     ratio, both sides run in one process on one machine, and the
//     benchmark itself reports the median of its per-pair overheads, the
//     pairs alternating which side goes first.
//
//   - The fast-mode speedup: BenchmarkRunFast must run at least
//     -min-fast-speedup times faster than BenchmarkRun *within the same
//     smoke output*. The smoke step runs the two as back-to-back pairs;
//     the k-th reading of one is paired with the k-th of the other, and
//     the median of the per-pair ratios is gated. The two benchmarks of a
//     pair share machine, load and process, so the ratio cancels most of
//     the noise that makes absolute ns/op ungateable, and the median
//     drops the pair a load spike still skews (single readings ranged
//     from 1.6x to 2.6x on one host).
//
// A benchmark may appear several times in the smoke output; every
// reading is kept, and the allocation and metric gates apply to each.
// Absolute timing numbers are parsed and reported but never gated — CI
// machines are too noisy for wall-clock thresholds; the committed snapshot
// plus the uploaded artifact keep the ns/op history reviewable by humans.
//
// The snapshot is written by the same tool from a smoke file of CI's own
// commands, gating nothing:
//
//	go run ./tools/benchgate -bench bench-smoke.txt -baseline BENCH_6.json -write BENCH_7.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// zeroAllocBenchmarks are the capture and map paths the perf layer holds
// at zero steady-state allocations.
var zeroAllocBenchmarks = []string{
	"BenchmarkRender",
	"BenchmarkRenderSweep",
	"BenchmarkDepthCapture",
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

// Fast-speedup ratio gate operands: in the median of their back-to-back
// pairs, fastRatioNum must be at least -min-fast-speedup times faster than
// fastRatioDen in the same smoke file.
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

// snapshot is a benchmark snapshot (BENCH_N.json). The gate reads each
// gated benchmark's after.allocs_op; -write records one from a smoke
// file, each entry the median of the benchmark's readings.
type snapshot struct {
	Method     string           `json:"method,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// entry is one benchmark of a snapshot.
type entry struct {
	Unit  string `json:"unit"`
	After struct {
		NsOp     float64 `json:"ns_op"`
		AllocsOp float64 `json:"allocs_op"`
	} `json:"after"`
}

func main() {
	benchPath := flag.String("bench", "bench-smoke.txt", "go test -bench output to gate")
	basePath := flag.String("baseline", "BENCH_7.json", "committed benchmark snapshot")
	maxRegress := flag.Float64("max-regress", 0.10, "allowed fractional allocs/op regression for BenchmarkRun")
	minFastSpeedup := flag.Float64("min-fast-speedup", 1.8, "required BenchmarkRun/BenchmarkRunFast ns/op ratio (0 disables the gate)")
	write := flag.String("write", "", "instead of gating, write the snapshot -bench records to this path (unit texts carried over from -baseline)")
	flag.Parse()

	var err error
	if *write != "" {
		err = writeSnapshot(*benchPath, *basePath, *write)
	} else {
		err = run(*benchPath, *basePath, *maxRegress, *minFastSpeedup, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// load parses the smoke file at benchPath and the snapshot at basePath.
func load(benchPath, basePath string) (map[string][]measurement, snapshot, error) {
	var base snapshot
	f, err := os.Open(benchPath)
	if err != nil {
		return nil, base, err
	}
	defer f.Close()
	results, err := parseBench(f)
	if err != nil {
		return nil, base, fmt.Errorf("parse %s: %w", benchPath, err)
	}
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		return nil, base, err
	}
	if err := json.Unmarshal(baseBytes, &base); err != nil {
		return nil, base, fmt.Errorf("parse %s: %w", basePath, err)
	}
	return results, base, nil
}

// run executes the gate and writes a human-readable verdict table.
func run(benchPath, basePath string, maxRegress, minFastSpeedup float64, w io.Writer) error {
	results, base, err := load(benchPath, basePath)
	if err != nil {
		return err
	}

	var violations []string

	for _, name := range zeroAllocBenchmarks {
		readings, ok := results[name]
		if !ok {
			// A silently missing benchmark must fail the gate, or a rename
			// would disable it forever.
			violations = append(violations, fmt.Sprintf("%s: missing from %s", name, benchPath))
			continue
		}
		for _, m := range readings {
			switch {
			case !m.HasAlloc:
				violations = append(violations, fmt.Sprintf("%s: no allocs/op column (ReportAllocs lost?)", name))
			case m.AllocsOp != 0:
				violations = append(violations,
					fmt.Sprintf("%s: %.0f allocs/op, want 0 (zero-alloc capture path regressed)", name, m.AllocsOp))
			default:
				fmt.Fprintf(w, "ok   %-24s 0 allocs/op (%.0f ns/op)\n", name, m.NsOp)
			}
		}
	}

	for _, name := range gatedBenchmarks {
		readings, ok := results[name]
		b, okBase := base.Benchmarks[name]
		switch {
		case !ok:
			violations = append(violations, fmt.Sprintf("%s: missing from %s", name, benchPath))
			continue
		case !okBase:
			violations = append(violations, fmt.Sprintf("%s: missing from baseline %s", name, basePath))
			continue
		}
		limit := b.After.AllocsOp * (1 + maxRegress)
		for _, m := range readings {
			switch {
			case !m.HasAlloc:
				violations = append(violations, fmt.Sprintf("%s: no allocs/op column (ReportAllocs lost?)", name))
			case m.AllocsOp > limit:
				violations = append(violations, fmt.Sprintf(
					"%s: %.0f allocs/op exceeds %.0f (baseline %.0f +%.0f%%) — the closed-loop hot path regressed",
					name, m.AllocsOp, limit, b.After.AllocsOp, maxRegress*100))
			default:
				fmt.Fprintf(w, "ok   %-24s %.0f allocs/op within %.0f (baseline %.0f +%.0f%%), %.0f ns/op\n",
					name, m.AllocsOp, limit, b.After.AllocsOp, maxRegress*100, m.NsOp)
			}
		}
	}

	for _, g := range metricGates {
		readings, ok := results[g.Bench]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from %s", g.Bench, benchPath))
			continue
		}
		for _, m := range readings {
			val, okMetric := m.Metrics[g.Unit]
			switch {
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
	}

	if minFastSpeedup > 0 {
		if v := fastSpeedup(results[fastRatioDen], results[fastRatioNum], minFastSpeedup, w); v != "" {
			violations = append(violations, v)
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

// writeSnapshot records the smoke file at benchPath as a snapshot at
// outPath: the median ns/op and allocs/op of every benchmark gated
// against the snapshot, its unit text carried over from the snapshot at
// prevPath. A gated benchmark missing from the smoke file is an error,
// so a snapshot never drops a budget.
func writeSnapshot(benchPath, prevPath, outPath string) error {
	results, prev, err := load(benchPath, prevPath)
	if err != nil {
		return err
	}
	snap := snapshot{
		Method: fmt.Sprintf("written by tools/benchgate -write from %s: each gated benchmark's median over its readings; unit texts carried over from %s",
			benchPath, prevPath),
		Benchmarks: map[string]entry{},
	}
	for _, name := range gatedBenchmarks {
		readings := results[name]
		if len(readings) == 0 {
			return fmt.Errorf("%s: missing from %s", name, benchPath)
		}
		ns, allocs := make([]float64, len(readings)), make([]float64, len(readings))
		for i, m := range readings {
			ns[i], allocs[i] = m.NsOp, m.AllocsOp
		}
		e := entry{Unit: prev.Benchmarks[name].Unit}
		e.After.NsOp, e.After.AllocsOp = median(ns), median(allocs)
		snap.Benchmarks[name] = e
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(out, '\n'), 0o644)
}

// median returns the middle value of vals, or the mean of the middle two
// for an even count. It sorts vals in place.
func median(vals []float64) float64 {
	slices.Sort(vals)
	mid := vals[len(vals)/2]
	if len(vals)%2 == 0 {
		mid = (vals[len(vals)/2-1] + mid) / 2
	}
	return mid
}

// fastSpeedup gates the median of the per-pair den/num ns/op ratios at
// minSpeedup, pairing the k-th reading of each benchmark. It reports ok
// lines to w and returns the violation, or "" when the gate holds.
func fastSpeedup(den, num []measurement, minSpeedup float64, w io.Writer) string {
	switch {
	case len(den) == 0 || len(num) == 0:
		return fmt.Sprintf("fast-speedup: need both %s and %s in the smoke output", fastRatioDen, fastRatioNum)
	case len(den) != len(num):
		return fmt.Sprintf("fast-speedup: %d %s readings but %d %s readings; the gate reads back-to-back pairs",
			len(den), fastRatioDen, len(num), fastRatioNum)
	}
	ratios := make([]string, len(den))
	sorted := make([]float64, len(den))
	for i := range den {
		if num[i].NsOp <= 0 {
			return fmt.Sprintf("fast-speedup: %s reports no ns/op", fastRatioNum)
		}
		sorted[i] = den[i].NsOp / num[i].NsOp
		ratios[i] = fmt.Sprintf("%.2f", sorted[i])
	}
	mid := median(sorted)
	if mid < minSpeedup {
		return fmt.Sprintf("fast-speedup: median %s/%s = %.2fx over %d pairs (%s), want >= %.2fx (fast engine mode lost its headroom)",
			fastRatioDen, fastRatioNum, mid, len(sorted), strings.Join(ratios, " "), minSpeedup)
	}
	fmt.Fprintf(w, "ok   %-24s median %.2fx >= %.2fx over %d %s/%s pairs (%s)\n",
		"fast-speedup", mid, minSpeedup, len(sorted), fastRatioDen, fastRatioNum, strings.Join(ratios, " "))
	return ""
}

// parseBench extracts every benchmark reading from `go test -bench`
// output, in file order per benchmark. Sub-benchmark names keep their
// slash part; the goroutine suffix (-8) is stripped. Lines without a
// benchmark shape are ignored, so the file may contain multiple
// concatenated runs plus test chatter.
func parseBench(r io.Reader) (map[string][]measurement, error) {
	out := make(map[string][]measurement)
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
			out[name] = append(out[name], m)
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
