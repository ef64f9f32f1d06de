package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// A pass flies the workload's whole grid once and yields its digests.

// passOutcome is what one pass reports.
type passOutcome struct {
	runs int
	wall time.Duration
	cpu  time.Duration
	d    digests
	// report is the engine's report for local and fleet passes; nil for
	// loopback passes, whose leases run inside coord.Work.
	report *campaign.Report
	err    error
}

func (p passOutcome) runsPerS() float64 { return float64(p.runs) / p.wall.Seconds() }

func (p passOutcome) cpuMsPerRun() float64 {
	return ratio(float64(p.cpu)/float64(time.Millisecond), float64(p.runs))
}

// timed runs fly and measures its wall clock and process CPU time.
func timed(fly func() passOutcome) passOutcome {
	cpu0, t0 := cpuTime(), time.Now()
	p := fly()
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	return p
}

// localPass flies spec through campaign.Execute.
func localPass(ctx context.Context, spec campaign.Spec, workers int) passOutcome {
	rep, err := campaign.Execute(ctx, spec, campaign.Options{Workers: workers})
	if err != nil {
		return passOutcome{runs: spec.Total(), err: err}
	}
	runs, err := spec.Runs()
	if err != nil {
		return passOutcome{runs: spec.Total(), err: err}
	}
	return passOutcome{
		runs:   len(rep.Results),
		d:      digests{Aggregates: rep.Digest(), Results: resultsDigest(runs, rep.Results)},
		report: rep,
	}
}

// resultsDigest chains per-run result digests in ascending (generation,
// map, scenario, repetition) order, the order of the committed golden
// file, whatever order the spec flew its cells in.
func resultsDigest(runs []campaign.Run, results []scenario.Result) string {
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := runs[order[a]].Cell, runs[order[b]].Cell
		if x.Gen != y.Gen {
			return x.Gen < y.Gen
		}
		if x.MapIdx != y.MapIdx {
			return x.MapIdx < y.MapIdx
		}
		if x.ScenarioIdx != y.ScenarioIdx {
			return x.ScenarioIdx < y.ScenarioIdx
		}
		return x.Rep < y.Rep
	})
	h := sha256.New()
	for _, i := range order {
		fmt.Fprintln(h, results[i].Digest())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loopbackServer is a coordinator served on an ephemeral 127.0.0.1 port.
type loopbackServer struct {
	c    *coord.Coordinator
	addr string
	srv  *http.Server
	done chan error
}

// serveLoopback builds a coordinator for spec and binds its listener.
func serveLoopback(spec campaign.Spec) (*loopbackServer, error) {
	c, err := coord.NewCoordinator(coord.Config{Spec: spec})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopbackServer{c: c, addr: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: c.Handler()}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its Serve loop to return.
func (s *loopbackServer) close() {
	s.srv.Close()
	<-s.done
}

// loopbackPass flies spec through a fresh coordinator and one coord.Work
// worker journaling into a temporary directory under workdir. wrap, when
// non-nil, wraps the transport that carries the worker's HTTP requests.
func loopbackPass(ctx context.Context, spec campaign.Spec, workers int, workdir string,
	wrap func(http.RoundTripper) http.RoundTripper) passOutcome {
	fail := func(err error) passOutcome { return passOutcome{runs: spec.Total(), err: err} }
	s, err := serveLoopback(spec)
	if err != nil {
		return fail(err)
	}
	defer s.close()
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	sum, err := coord.Work(ctx, coord.WorkerOptions{
		Addr: s.addr, Name: "perfbench", EngineWorkers: workers, CheckpointDir: dir,
		Client: &http.Client{Transport: rt, Timeout: time.Minute},
	})
	if err != nil {
		return fail(fmt.Errorf("coord worker: %w", err))
	}
	select {
	case <-s.c.Done():
	default:
		return fail(errors.New("coord worker exited before the campaign completed"))
	}
	return passOutcome{runs: sum.Runs, d: digests{Aggregates: s.c.Digest()}}
}

// join is the worker's first lease request, which a loopback set-up pays
// before the first mission flies.
func join(ctx context.Context, addr string) error {
	body, err := json.Marshal(coord.LeaseRequest{Worker: "perfbench-setup"})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+coord.PathLease, bytes.NewReader(body))
	if err != nil {
		return err
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var l coord.Lease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return fmt.Errorf("join: %s: %w", resp.Status, err)
	}
	return nil
}

// setupOutcome is one cold set-up: every world of the workload generated
// into an empty cache, plus, for loopback, a coordinator built, bound and
// joined.
type setupOutcome struct {
	wall time.Duration
	// generate holds each cold Acquire's time in ms.
	generate []float64
	// hits and misses are the world cache's registry counts over the
	// set-up's Acquire sequence.
	hits, misses float64
}

// coldSetup empties the shared world cache and acquires every run's world
// in campaign order, which generates each distinct world once, exactly as
// the first pass of a cold process would.
func coldSetup(ctx context.Context, w workload, spec campaign.Spec) (setupOutcome, error) {
	runs, err := spec.Runs()
	if err != nil {
		return setupOutcome{}, err
	}
	worldgen.Shared = worldgen.NewCache(worldgen.DefaultCacheCapacity)
	// Collect the previous set-up's worlds first, so that no set-up pays
	// for another's garbage.
	runtime.GC()
	before, err := readRegistry()
	if err != nil {
		return setupOutcome{}, err
	}
	var out setupOutcome
	t0 := time.Now()
	for _, ru := range runs {
		_, misses, _ := worldgen.Shared.Stats()
		a0 := time.Now()
		_, release, err := worldgen.Shared.Acquire(ru.MapIdx, ru.ScenarioIdx)
		if err != nil {
			return setupOutcome{}, err
		}
		release()
		if _, m, _ := worldgen.Shared.Stats(); m > misses {
			out.generate = append(out.generate, ms(time.Since(a0)))
		}
	}
	if w.kind == loopback {
		s, err := serveLoopback(spec)
		if err != nil {
			return setupOutcome{}, err
		}
		err = join(ctx, s.addr)
		s.close()
		if err != nil {
			return setupOutcome{}, err
		}
	}
	out.wall = time.Since(t0)
	after, err := readRegistry()
	if err != nil {
		return setupOutcome{}, err
	}
	out.hits = after.delta(before, "worldgen_cache_hits_total")
	out.misses = after.delta(before, "worldgen_cache_misses_total")
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS watermark from the current RSS, so a workload's peak does not
// carry over the peak of one run earlier in the same process.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set size since the last
// resetPeakRSS, in MiB.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
