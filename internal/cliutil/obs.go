package cliutil

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// Observability flags shared by every campaign tool: -trace streams
// per-run flight-recorder traces, -metrics dumps the final registry
// snapshot, -debug serves the live /metrics + pprof surface.

// DefaultTraceCap bounds one run's flight-recorder ring. Capture/apply
// pairs dominate a trace (two events per sensor-due tick), so a long
// mission records a few thousand events; 64k leaves generous headroom
// before the ring starts dropping oldest-first.
const DefaultTraceCap = 1 << 16

// WireTrace arms -trace on a locally executed campaign: every run flies
// with its own flight recorder (installed through the spec's Configure
// hook, fanned out beside any recorder the tool's own hook installed),
// and each finished run appends one header + events block to the trace
// file through the ordered OnResult stream — so the file is in canonical
// run order and byte-identical at any worker count. Runs replayed from a
// checkpoint journal never re-fly and so contribute no trace block.
//
// The returned close function flushes and closes the file; call it once
// the campaign is done (it is nil-safe to call when -trace is unset).
func (f *CampaignFlags) WireTrace(spec *campaign.Spec, opts *campaign.Options) (func() error, error) {
	if f.Trace == "" {
		return func() error { return nil }, nil
	}
	file, err := os.Create(f.Trace)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriterSize(file, 1<<20)

	// Per-run recorders live in a sync.Map keyed by canonical run index:
	// Configure runs on worker goroutines, OnResult under the delivery
	// lock, and the index is the only shared key between them.
	var traces sync.Map
	prevConfigure := spec.Configure
	spec.Configure = func(ru campaign.Run, sc *worldgen.Scenario, sys *core.System, cfg *scenario.RunConfig) {
		if prevConfigure != nil {
			prevConfigure(ru, sc, sys, cfg)
		}
		tr := obs.NewTrace(DefaultTraceCap)
		traces.Store(ru.Index, tr)
		if cfg.Recorder != nil {
			cfg.Recorder = tee{cfg.Recorder, tr}
		} else {
			cfg.Recorder = tr
		}
	}

	var werr error
	prevOnResult := opts.OnResult
	opts.Ordered = true
	opts.OnResult = func(ru campaign.Run, r scenario.Result) {
		if v, ok := traces.LoadAndDelete(ru.Index); ok && werr == nil {
			tr := v.(*obs.Trace)
			hdr := obs.RunHeader{
				Run: ru.Index, Gen: ru.Gen.String(),
				Map: ru.MapIdx, Sc: ru.ScenarioIdx,
				Rep: ru.Rep, Seed: ru.Seed,
			}
			if err := obs.WriteRunTrace(w, hdr, tr.Events(), tr.Dropped()); err != nil {
				werr = err
			}
		}
		if prevOnResult != nil {
			prevOnResult(ru, r)
		}
	}

	return func() error {
		if werr != nil {
			file.Close()
			return fmt.Errorf("trace file: %w", werr)
		}
		if err := w.Flush(); err != nil {
			file.Close()
			return fmt.Errorf("trace file: %w", err)
		}
		return file.Close()
	}, nil
}

// tee fans one run's events out to two recorders, in order.
type tee [2]obs.Recorder

func (t tee) Record(ev obs.Event) {
	t[0].Record(ev)
	t[1].Record(ev)
}

// StartDebug arms -debug: the standard debug surface (GET /metrics plus
// /debug/pprof) served for the process lifetime. No-op when unset.
func (f *CampaignFlags) StartDebug(tool string) error {
	if f.Debug == "" {
		return nil
	}
	ln, err := net.Listen("tcp", f.Debug)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: debug listener on http://%s/metrics\n", tool, ln.Addr())
	go http.Serve(ln, obs.DebugMux())
	return nil
}

// DumpMetrics arms -metrics: the final registry snapshot in Prometheus
// text format, to stderr ("-" or "stderr") or a file. Call it once on
// the way out; no-op when unset.
func (f *CampaignFlags) DumpMetrics(tool string) error {
	if f.Metrics == "" {
		return nil
	}
	if f.Metrics == "-" || f.Metrics == "stderr" {
		return obs.WritePrometheus(os.Stderr)
	}
	file, err := os.Create(f.Metrics)
	if err != nil {
		return fmt.Errorf("metrics file: %w", err)
	}
	if err := obs.WritePrometheus(file); err != nil {
		file.Close()
		return fmt.Errorf("metrics file: %w", err)
	}
	return file.Close()
}
