package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/campaign"
)

// options configure one workload's run.
type options struct {
	seed int64
	// seconds is how long the timed passes may take; a run always flies
	// at least minPasses passes, so that a digest established by the
	// first is checked by the second.
	seconds float64
	// root is the checkout, where golden-exact's reference lives.
	root string
	// workdir holds the loopback worker's journals.
	workdir string
	// ref, when set, replaces the workload's reference digests.
	ref *digests
	// log receives the human-readable progress lines.
	log io.Writer
}

const (
	minPasses = 2
	// setups is how many cold set-ups a run times; setup_s is their
	// median.
	setups = 21
)

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker holds one pass kind's reference digests and counts the runs it
// judged. A zero reference is established by the first pass to succeed.
type checker struct {
	ref               digests
	attempted, failed int
}

// check records p's runs and reports whether the pass reproduced the
// reference. A pass that errored or whose digests differ fails every run.
func (c *checker) check(p passOutcome) bool {
	c.attempted += p.runs
	if p.err == nil && c.ref == (digests{}) {
		c.ref = p.d
	}
	if p.err != nil || p.d != c.ref {
		c.failed += p.runs
		return false
	}
	return true
}

// bench runs one workload: cold set-ups, then timed passes for
// o.seconds, each checked against the reference digests.
type bench struct {
	w    workload
	o    options
	spec campaign.Spec
	chk  checker
}

func newBench(w workload, o options) (*bench, error) {
	ref, err := reference(w, o.seed, o.root)
	if err != nil {
		return nil, err
	}
	if o.ref != nil {
		ref = *o.ref
	}
	return &bench{w: w, o: o, spec: withSeed(w.grid(), o.seed), chk: checker{ref: ref}}, nil
}

// fly runs one untraced pass of the workload's own grid.
func (b *bench) fly(ctx context.Context) passOutcome {
	return timed(func() passOutcome {
		if b.w.kind == loopback {
			return loopbackPass(ctx, b.spec, b.w.workers, b.o.workdir, nil)
		}
		return localPass(ctx, b.spec, b.w.workers)
	})
}

// judge checks p against c and prints the pass's figures and verdict. It
// reports whether the pass reproduced the reference.
func (b *bench) judge(label string, p passOutcome, c *checker) bool {
	ok := c.check(p)
	verdict := fmt.Sprintf("digest ok (aggregates %s results %s)", p.d.Aggregates, p.d.Results)
	switch {
	case p.err != nil:
		verdict = "FAILED: " + p.err.Error()
	case !ok:
		verdict = fmt.Sprintf("FAILED: digest (aggregates %s results %s) differs from reference (aggregates %s results %s)",
			p.d.Aggregates, p.d.Results, c.ref.Aggregates, c.ref.Results)
	}
	fmt.Fprintf(b.o.log, "%s %-9s %4d runs %8.3f s %8.3f runs/s %9.2f cpu-ms/run  %s\n",
		b.w.name, label, p.runs, p.wall.Seconds(), p.runsPerS(), p.cpuMsPerRun(), verdict)
	return ok
}

// setup times setups cold set-ups and returns their outcomes.
func (b *bench) setup(ctx context.Context) ([]setupOutcome, error) {
	var out []setupOutcome
	for i := 0; i < setups; i++ {
		s, err := coldSetup(ctx, b.w, b.spec)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.w.name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// more reports whether another round fits in a window of seconds that
// opened at start: fewer than atLeast rounds have run, or one more round of
// the median duration so far still ends inside the window.
func more(start time.Time, took []float64, atLeast int, seconds float64) bool {
	if len(took) < atLeast {
		return true
	}
	return time.Since(start).Seconds()+median(took) <= seconds
}

// runEndToEnd measures the workload's end-to-end metrics with tracing
// off.
func runEndToEnd(ctx context.Context, w workload, o options) (result, error) {
	b, err := newBench(w, o)
	if err != nil {
		return result{}, err
	}
	if err := resetPeakRSS(); err != nil {
		return result{}, err
	}
	setupsDone, err := b.setup(ctx)
	if err != nil {
		return result{}, err
	}
	var setupS, walls, rps, cpu []float64
	for _, s := range setupsDone {
		setupS = append(setupS, s.wall.Seconds())
	}
	for start := time.Now(); more(start, walls, minPasses, o.seconds); {
		if err := ctx.Err(); err != nil {
			return result{}, err
		}
		p := b.fly(ctx)
		walls = append(walls, p.wall.Seconds())
		if b.judge("pass", p, &b.chk) {
			rps = append(rps, p.runsPerS())
			cpu = append(cpu, p.cpuMsPerRun())
		}
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	return b.result(map[string]metric{
		"runs_per_s":     {median(rps), "1/s"},
		"cpu_ms_per_run": {median(cpu), "ms"},
		"peak_rss_mb":    {peak, "MiB"},
		"setup_s":        {median(setupS), "s"},
	}), nil
}

// result assembles the output line from the checkers' counts.
func (b *bench) result(metrics map[string]metric, extra ...checker) result {
	r := result{Attempted: b.chk.attempted, Failed: b.chk.failed, Metrics: metrics}
	for _, c := range extra {
		r.Attempted += c.attempted
		r.Failed += c.failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}
