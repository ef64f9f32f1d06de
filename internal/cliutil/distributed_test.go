package cliutil

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
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

// runsStarted reads the campaign_runs_started_total series off the
// metrics plane.
func runsStarted(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "campaign_runs_started_total ") {
			return line
		}
	}
	t.Fatal("no campaign_runs_started_total series")
	return ""
}

// TestDistributedLoopback drives the exact code path the tools run:
// Distributed(-serve -checkpoint) coordinating, Distributed(-join)
// working, the merged aggregates matching a direct local execution bit for
// bit, and a local Execute over the coordinator's journal replaying every
// run, flying none, to the same digest.
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
	journal := filepath.Join(t.TempDir(), "coord.ckpt")
	serve := &CampaignFlags{Serve: addr, LeaseTTL: 10 * time.Second, Checkpoint: journal}

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

	started := runsStarted(t)
	replay := (&CampaignFlags{Checkpoint: journal}).Execute("test", spec, campaign.Options{Workers: 2, Ordered: true})
	if after := runsStarted(t); after != started {
		t.Fatalf("replaying the coordinator's journal flew runs: %q -> %q", started, after)
	}
	if got, want := replay.Digest(), direct.Digest(); got != want {
		t.Fatalf("replay of the coordinator's journal: digest %s != direct %s", got, want)
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
