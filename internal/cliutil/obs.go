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
// hook, after the campaign's own hook has run), and each finished run
// appends one header + events block to the trace
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
		cfg.Recorder = tr
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

// ReflownEvents re-flies run i of spec (campaign.Refly, checked against
// r, the campaign's result for it) and returns the events of kind its
// primary drone recorded: a figure that lives in one run's trace, read
// the same way after a fresh run and after a resume.
func ReflownEvents(spec campaign.Spec, i int, r scenario.Result, kind string) ([]obs.Event, error) {
	tr := obs.NewTrace(DefaultTraceCap)
	if _, err := campaign.Refly(spec, i, r.Digest(), tr); err != nil {
		return nil, err
	}
	var out []obs.Event
	for _, ev := range tr.Events() {
		if ev.Kind == kind && ev.Member == 0 {
			out = append(out, ev)
		}
	}
	return out, nil
}

// PrintEvents prints header, then one obs.FormatEvent line per event;
// nothing at all when there are no events.
func PrintEvents(header string, events []obs.Event) {
	if len(events) == 0 {
		return
	}
	fmt.Println(header)
	for _, ev := range events {
		fmt.Println(obs.FormatEvent(ev))
	}
}

// FaultTimeline returns the fault edges of the first run whose Result
// shows a fault injection, re-flown; nil when no run saw one.
func FaultTimeline(spec campaign.Spec, results []scenario.Result) ([]obs.Event, error) {
	for i, r := range results {
		if r.FaultInjections > 0 {
			return ReflownEvents(spec, i, r, "fault")
		}
	}
	return nil, nil
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
