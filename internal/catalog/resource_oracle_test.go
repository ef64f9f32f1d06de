package catalog

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Resource oracle: the platform-load figures of the hardware campaigns
// (Table III's resource summary, §V-C's CPU/RAM line and Fig. 7's
// series), pinned bit for bit. For every run of a fixed run set the file
// holds the run's mean CPU, mean RAM and peak RAM as math.Float64bits;
// for the fleet runs it also holds the number of per-second samples, and
// for field flight 0 the whole (T, CPU %, MemMB) series. The values were
// recorded from the per-process resource monitors the hardware tools
// used before each run carried its own summary, so the figures a run
// reports are the ones those monitors built. Here the summaries come
// from each run's Result.Resources, and the samples from the "resource"
// events of the run re-flown with a flight recorder.
//
// Regenerate only after an intentional change to the platform model:
//
//	GOLDEN_UPDATE=1 go test ./internal/catalog -run TestResourceOracle

const resourceOraclePath = "testdata/resource_oracle.txt"

// oracleCase is one campaign of the oracle's run set.
type oracleCase struct {
	name  string
	c     *Campaign
	grid  Grid
	knobs Knobs
	// samples records each run's per-second sample count.
	samples bool
}

// oracleCases are hil-maxn and hil-5w, inline and pipelined, nominal and
// under the gps and blackout presets; one hil-maxn -fleet 3 campaign; and
// field flights 0-7.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	plan := func(name string) *fault.Plan {
		p, err := fault.ParsePlan(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	grid := Grid{Maps: 2, Scenarios: 3, Repeats: 1}
	var cases []oracleCase
	for _, c := range []*Campaign{HILMAXN, HIL5W} {
		for _, pipe := range []bool{false, true} {
			for _, faults := range []string{"none", "gps", "blackout"} {
				mode := "inline"
				if pipe {
					mode = "pipeline"
				}
				cases = append(cases, oracleCase{
					name:  fmt.Sprintf("%s/%s/%s", c.Name, mode, faults),
					c:     c,
					grid:  grid,
					knobs: Knobs{Pipeline: pipe, Faults: plan(faults)},
				})
			}
		}
	}
	return append(cases,
		oracleCase{name: "hil-maxn/fleet3", c: HILMAXN, grid: Grid{Maps: 1, Scenarios: 2, Repeats: 1},
			knobs: Knobs{Fleet: &scenario.FleetSpec{Size: 3}}, samples: true},
		oracleCase{name: "field", c: Field, grid: Grid{Runs: 8}},
	)
}

// oracleRun is one run's platform-load figures: its summary, its sample
// count and, when asked for, its series.
type oracleRun struct {
	meanCPU, meanMem, peakMem float64
	samples                   int
	series                    [][3]float64
}

// flyOracle flies spec on two workers and returns each run's figures.
// Runs whose sample count or series is asked for are re-flown with a
// flight recorder: the count is every "resource" event of the run, any
// fleet member's, and the series is run 0's.
func flyOracle(t *testing.T, spec campaign.Spec, samples, series bool) []oracleRun {
	t.Helper()
	report, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]oracleRun, len(report.Results))
	for i, r := range report.Results {
		res := r.Resources
		if res == nil {
			t.Fatalf("run %d carries no resource summary", i)
		}
		out[i] = oracleRun{meanCPU: res.MeanCPU, meanMem: res.MeanMemMB, peakMem: res.PeakMemMB}
		if !samples && !(series && i == 0) {
			continue
		}
		tr := obs.NewTrace(1 << 16)
		if _, err := campaign.Refly(spec, i, r.Digest(), tr); err != nil {
			t.Fatal(err)
		}
		for _, ev := range tr.Events() {
			if ev.Kind != "resource" {
				continue
			}
			out[i].samples++
			if series && i == 0 {
				out[i].series = append(out[i].series, [3]float64{ev.T, ev.Value, ev.MemMB})
			}
		}
	}
	return out
}

// TestResourceOracle flies the run set and compares every figure with
// the committed oracle, bit for bit.
func TestResourceOracle(t *testing.T) {
	var got strings.Builder
	bits := math.Float64bits
	for _, oc := range oracleCases(t) {
		spec, err := oc.c.Spec(oc.grid, oc.knobs)
		if err != nil {
			t.Fatal(err)
		}
		runs := flyOracle(t, spec, oc.samples, oc.c == Field)
		for i, r := range runs {
			fmt.Fprintf(&got, "run %s %d %016x %016x %016x\n", oc.name, i,
				bits(r.meanCPU), bits(r.meanMem), bits(r.peakMem))
			if oc.samples {
				fmt.Fprintf(&got, "samples %s %d %d\n", oc.name, i, r.samples)
			}
		}
		for _, s := range runs[0].series {
			fmt.Fprintf(&got, "series %s 0 %016x %016x %016x\n", oc.name, bits(s[0]), bits(s[1]), bits(s[2]))
		}
	}

	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.WriteFile(resourceOraclePath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", resourceOraclePath)
		return
	}
	want, err := os.ReadFile(resourceOraclePath)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("oracle has %d lines, the run set gives %d", len(wantLines), len(gotLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
