package cliutil

import (
	"context"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// freePort reserves an ephemeral loopback port and releases it for the
// coordinator to claim. The tiny reuse window is fine for a test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDistributedLoopback drives the exact code path the tools run:
// Distributed(-serve -out) coordinating, Distributed(-join) working, the
// merged aggregates matching a direct local execution bit for bit, and
// -merge reading the same digest back from the campaign result file.
func TestDistributedLoopback(t *testing.T) {
	spec := campaign.Spec{
		Maps:        campaign.Range(1),
		Scenarios:   campaign.Range(2),
		Repeats:     1,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
	direct, err := campaign.Execute(context.Background(), spec, campaign.Options{Workers: 2, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}

	addr := freePort(t)
	out := filepath.Join(t.TempDir(), "result.json")
	serve := &CampaignFlags{Serve: addr, LeaseTTL: 10 * time.Second, Out: out}

	var (
		wg   sync.WaitGroup
		aggs map[core.Generation]*scenario.Aggregate
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var handled bool
		aggs, handled = serve.Distributed("test", spec, "")
		if !handled {
			t.Error("serve mode not handled")
		}
	}()

	// Wait for the listener, then join as a worker through the same
	// entry point the tools use.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never listened")
		}
		time.Sleep(20 * time.Millisecond)
	}
	join := &CampaignFlags{Join: "http://" + addr, WorkerName: "w", Workers: 2, Checkpoint: t.TempDir()}
	if _, handled := join.Distributed("test", campaign.Spec{}, ""); !handled {
		t.Fatal("join mode not handled")
	}

	wg.Wait()
	if len(aggs) != 1 {
		t.Fatalf("aggregates: want 1 generation, got %d", len(aggs))
	}
	if got, want := campaign.AggregatesDigest(aggs), campaign.AggregatesDigest(direct.Aggregates); got != want {
		t.Fatalf("fleet digest %s != direct digest %s", got, want)
	}
	if got, want := campaign.AggregatesDigest(Merge("test", "runs", "", []string{out})), direct.Digest(); got != want {
		t.Fatalf("-merge of the result file: digest %s != direct %s", got, want)
	}
}

// TestServeCampaignInterrupted covers the ctx-cancel path: the
// coordinator must report how far the campaign got and return an error.
func TestServeCampaignInterrupted(t *testing.T) {
	spec := campaign.Spec{
		Maps:        campaign.Range(1),
		Scenarios:   campaign.Range(1),
		Repeats:     1,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &CampaignFlags{Serve: freePort(t), LeaseTTL: time.Second}
	if _, err := f.ServeCampaign(ctx, "test", spec, ""); err == nil {
		t.Fatal("interrupted serve returned nil error")
	}
}

func TestDistributedUnsetIsLocal(t *testing.T) {
	f := &CampaignFlags{}
	if aggs, handled := f.Distributed("test", campaign.Spec{}, ""); handled || aggs != nil {
		t.Fatalf("no -serve/-join must run locally: %v %v", aggs, handled)
	}
}

// writeResultFile writes a one-run campaign result file of profile.
func writeResultFile(t *testing.T, profile string) string {
	t.Helper()
	agg := scenario.NewAggregate("MLS-V3")
	agg.Add(scenario.Result{Resources: &scenario.Resources{MeanCPU: 250}})
	path := filepath.Join(t.TempDir(), "result.json")
	sr := &campaign.ShardResult{Count: 1, End: 1, Total: 1, Profile: profile,
		Aggregates: map[core.Generation]*scenario.Aggregate{core.V3: agg}}
	if err := campaign.WriteShardResult(path, sr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMergeRefusesAnotherToolsCampaign: -merge reads only its own tool's
// campaigns. A field result file is refused by hilbench (hil-maxn) and by
// silbench (sil), naming the campaign it holds, and read by fieldtest.
func TestMergeRefusesAnotherToolsCampaign(t *testing.T) {
	field := writeResultFile(t, "field")
	for _, profile := range []string{"hil-maxn", ""} {
		if _, err := readResult(field, profile); err == nil || !strings.Contains(err.Error(), `holds campaign profile "field"`) {
			t.Errorf("profile %q read a field file: err = %v", profile, err)
		}
	}
	if res, err := readResult(field, "field"); err != nil || res.Profile != "field" {
		t.Fatalf("fieldtest refused its own file: %v", err)
	}
}

// TestMergeRefusesUnprofiledHardwareFile: a file that names no profile is
// a sil campaign, or a hardware one written before result files recorded
// their profile, whose rows carry no resource summaries. hilbench and
// fieldtest refuse it and say to serve the campaign again; silbench
// reads it as before.
func TestMergeRefusesUnprofiledHardwareFile(t *testing.T) {
	old := writeResultFile(t, "")
	for _, profile := range []string{"hil-maxn", "field"} {
		if _, err := readResult(old, profile); err == nil || !strings.Contains(err.Error(), "serve it again") {
			t.Errorf("profile %q read an unprofiled file: err = %v", profile, err)
		}
	}
	if _, err := readResult(old, ""); err != nil {
		t.Fatalf("silbench refused a sil file: %v", err)
	}
}
