package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// Options tunes how a campaign executes; the zero value fans out across
// GOMAXPROCS workers with unordered delivery.
type Options struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	// Workers == 1 executes the campaign sequentially in canonical order.
	Workers int

	// Ordered delivers OnResult callbacks in canonical grid order (a
	// reorder buffer holds finished runs until their predecessors land),
	// making callback streams bit-identical to the sequential engine.
	// Unordered delivery fires as runs finish.
	Ordered bool

	// DiscardResults drops per-run results after delivery instead of
	// buffering them in Report.Results — the streaming mode for huge
	// sweeps that only need the aggregates.
	DiscardResults bool

	// OnResult, when non-nil, observes each finished run. It runs under
	// the engine's delivery lock: keep it cheap, and never call back into
	// Execute from it.
	OnResult func(Run, scenario.Result)

	// OnProgress, when non-nil, observes completion progress (with an ETA
	// extrapolated from throughput so far) after each run. Same locking
	// caveats as OnResult.
	OnProgress func(Progress)

	// Checkpoint, when non-nil, makes the campaign resumable: every
	// finished run is durably appended to the journal, and runs already on
	// record are replayed from it (delivered through OnResult/OnProgress
	// and folded into the report) instead of re-executed. Because journal
	// round-trips are bit-exact and aggregation is exact and
	// order-independent, a resumed campaign's Results and Aggregates are
	// bit-identical to an uninterrupted run's. The journal must have been
	// opened for this same spec (OpenJournal enforces the binding; Execute
	// re-checks it). The caller retains ownership and closes it.
	Checkpoint *Journal
}

// Progress is a point-in-time view of a running campaign.
type Progress struct {
	// Done of Total runs have finished.
	Done, Total int
	// Elapsed is wall-clock time since Execute started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from mean throughput;
	// zero once the campaign is complete.
	ETA time.Duration
}

// Report is the outcome of one executed campaign.
type Report struct {
	// Results holds every run's result in canonical grid order — for the
	// same Spec this slice is bit-identical whatever the worker count.
	// Nil when Options.DiscardResults is set.
	Results []scenario.Result

	// Aggregates carries one streaming-merged row per generation, built
	// from per-worker shard aggregates (scenario.Aggregate.Add locally,
	// Merge at the end) without buffering results. Aggregation is exact
	// and order-independent (fixed-point accumulators), so for the same
	// Spec the rows are bit-identical whatever the worker count, dynamic
	// schedule, checkpoint resume, or shard merge order — verifiable with
	// Digest.
	Aggregates map[core.Generation]*scenario.Aggregate

	// Wall is the elapsed execution time; Busy is the summed wall-clock
	// time of the runs themselves across all workers.
	Wall time.Duration
	Busy time.Duration
	// Workers is the pool size actually used; 0 when a checkpoint replay
	// covered every run and no worker had anything to execute.
	Workers int
	// Flown counts the runs executed by this call; Replayed counts those
	// delivered from the checkpoint journal instead.
	Flown, Replayed int
}

// Execute runs the campaign described by spec across a worker pool.
//
// Each worker claims runs off a shared counter, executes them through
// scenario.RunGridCell (deterministic per-run seeds, no shared state) and
// folds results into a worker-local per-generation aggregate; shards merge
// into Report.Aggregates at the end. Report.Results is ordered by run
// index, so parallel execution returns exactly the slice the sequential
// engine would.
//
// Cancelling ctx stops the campaign between runs (an in-flight mission
// finishes first — runs are seconds, not minutes) and Execute returns the
// context's error. The first per-run error likewise cancels the rest of
// the campaign. In both cases the partial report is discarded — though
// with a Checkpoint journal every finished run is already durable, so a
// re-Execute resumes where the cancelled campaign stopped.
func Execute(ctx context.Context, spec Spec, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runs, err := spec.Runs()
	if err != nil {
		return nil, err
	}
	n := len(runs)

	// Resumable campaigns: replayed indices are delivered from the journal
	// below and skipped by the workers.
	journal := opts.Checkpoint
	var skip []bool
	var replay []int
	if journal != nil {
		sig, err := spec.Signature()
		if err != nil {
			return nil, err
		}
		if sig != journal.sig {
			return nil, fmt.Errorf("campaign: checkpoint journal was opened for a different spec")
		}
		skip = make([]bool, n)
		replay = journal.CompletedIndices()
		for _, i := range replay {
			skip[i] = true
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if remaining := n - len(replay); workers > remaining {
		workers = remaining
	}
	report := &Report{
		Aggregates: make(map[core.Generation]*scenario.Aggregate),
		Workers:    workers,
		Flown:      n - len(replay),
		Replayed:   len(replay),
	}
	if n == 0 {
		return report, ctx.Err()
	}
	if !opts.DiscardResults {
		report.Results = make([]scenario.Result, n)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	var (
		next   atomic.Int64 // next run index to claim
		busyNs atomic.Int64 // summed per-run wall time

		mu        sync.Mutex // guards everything below
		firstErr  error
		done      int
		completed []bool                  // ordered mode: which indices finished
		held      map[int]scenario.Result // ordered+discard: finished, not yet emitted
		nextEmit  int
	)
	ordered := opts.Ordered && opts.OnResult != nil
	if ordered {
		completed = make([]bool, n)
		if opts.DiscardResults {
			held = make(map[int]scenario.Result)
		}
	}

	// deliver is called under mu once run i's result is stored.
	deliver := func(i int, r scenario.Result) {
		done++
		if opts.OnResult != nil {
			switch {
			case ordered:
				completed[i] = true
				if held != nil {
					held[i] = r
				}
				for nextEmit < n && completed[nextEmit] {
					var v scenario.Result
					if held != nil {
						v = held[nextEmit]
						delete(held, nextEmit)
					} else {
						v = report.Results[nextEmit]
					}
					opts.OnResult(runs[nextEmit], v)
					nextEmit++
				}
			default:
				opts.OnResult(runs[i], r)
			}
		}
		if opts.OnProgress != nil {
			p := Progress{Done: done, Total: n, Elapsed: time.Since(start)}
			// Extrapolate from live throughput only: replayed journal runs
			// deliver in microseconds and would otherwise collapse the ETA
			// of the real work left.
			if live := done - len(replay); done < n && live > 0 {
				p.ETA = time.Duration(float64(p.Elapsed) / float64(live) * float64(n-done))
			}
			opts.OnProgress(p)
		}
	}

	// Replay journaled runs before the pool starts: fold them into their
	// own shard and deliver them in canonical order, so callbacks see a
	// complete stream and the report covers all n runs. Exact aggregation
	// makes the replay-shard/live-shard split invisible in the merged bits.
	replayShard := make(map[core.Generation]*scenario.Aggregate)
	mRunsReplayed.Add(int64(len(replay)))
	for _, i := range replay {
		r, _ := journal.Completed(i)
		ru := runs[i]
		agg := replayShard[ru.Gen]
		if agg == nil {
			agg = scenario.NewAggregate(ru.Gen.String())
			replayShard[ru.Gen] = agg
		}
		agg.Add(r)
		if report.Results != nil {
			report.Results[i] = r
		}
		mu.Lock()
		deliver(i, r)
		mu.Unlock()
	}

	shards := make([]map[core.Generation]*scenario.Aggregate, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shard := make(map[core.Generation]*scenario.Aggregate)
		shards[w] = shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				if skip != nil && skip[i] {
					continue
				}
				ru := runs[i]
				var configure scenario.ConfigureFunc
				if spec.Configure != nil {
					configure = func(sc *worldgen.Scenario, sys *core.System, cfg *scenario.RunConfig) {
						spec.Configure(ru, sc, sys, cfg)
					}
				}
				t0 := time.Now()
				mRunsStarted.Inc()
				r, err := scenario.RunGridCell(ru.Gen, ru.MapIdx, ru.ScenarioIdx, ru.Seed, spec.Timing, configure)
				busyNs.Add(int64(time.Since(t0)))
				if err == nil {
					mRunsFinished.Inc()
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("campaign: run %d (%v map %d scenario %d rep %d): %w",
							ru.Index, ru.Gen, ru.MapIdx, ru.ScenarioIdx, ru.Rep, err)
					}
					mu.Unlock()
					cancel()
					return
				}
				if journal != nil {
					// Persist before delivering: a run is only observable
					// once it is durable, so a crash between the two can
					// at worst replay it, never lose it.
					if err := journal.Append(ru, r); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						cancel()
						return
					}
				}
				agg := shard[ru.Gen]
				if agg == nil {
					agg = scenario.NewAggregate(ru.Gen.String())
					shard[ru.Gen] = agg
				}
				agg.Add(r)
				if report.Results != nil {
					report.Results[i] = r
				}
				mu.Lock()
				deliver(i, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge the replay shard and worker shards generation by generation.
	// Merge order is presentation only: exact aggregation makes any order
	// bit-identical.
	for _, gen := range generations(runs) {
		merged := scenario.NewAggregate(gen.String())
		if agg := replayShard[gen]; agg != nil {
			merged.Merge(*agg)
		}
		for _, shard := range shards {
			if agg := shard[gen]; agg != nil {
				merged.Merge(*agg)
			}
		}
		report.Aggregates[gen] = merged
	}
	report.Wall = time.Since(start)
	report.Busy = time.Duration(busyNs.Load())
	return report, nil
}

// Refly flies run index of the spec once more, with rec as its flight
// recorder: runs are pure functions of (seed, Spec), so what rec holds
// afterwards is that run's trace. digest is the campaign's record of the
// run (Result.Digest); a re-flown Result that digests differently is not
// the campaign's run and is refused.
func Refly(spec Spec, index int, digest string, rec obs.Recorder) (scenario.Result, error) {
	runs, err := spec.Runs()
	if err != nil {
		return scenario.Result{}, err
	}
	if index < 0 || index >= len(runs) {
		return scenario.Result{}, fmt.Errorf("campaign: re-fly run %d: the campaign has runs [0,%d)", index, len(runs))
	}
	ru := runs[index]
	r, err := scenario.RunGridCell(ru.Gen, ru.MapIdx, ru.ScenarioIdx, ru.Seed, spec.Timing,
		func(sc *worldgen.Scenario, sys *core.System, cfg *scenario.RunConfig) {
			if spec.Configure != nil {
				spec.Configure(ru, sc, sys, cfg)
			}
			cfg.Recorder = rec
		})
	if err != nil {
		return scenario.Result{}, err
	}
	if d := r.Digest(); d != digest {
		return scenario.Result{}, fmt.Errorf(
			"campaign: re-flown run %d digests %.12s…, the campaign recorded %.12s… — not the campaign's run (a journal written by an older build?)",
			index, d, digest)
	}
	return r, nil
}
