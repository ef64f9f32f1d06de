package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// CheckStats summarizes one CheckTrace pass.
type CheckStats struct {
	// Runs is the number of run-header lines seen (0 for a bare event
	// stream, which is checked as one anonymous run).
	Runs int
	// Events is the total event-line count.
	Events int
	// Violations is the number of invariant violations found.
	Violations int
}

// pairKey identifies one open enter/exit window.
type pairKey struct {
	member int
	kind   string
	detail string
}

// runChecker validates the ordering invariants of one run's event stream:
//
//   - per member, ticks are monotone non-decreasing;
//   - windowed kinds (Phased in EventKinds) emit matched enter/exit
//     pairs — no exit without enter, no double enter (a window may stay
//     open at mission end);
//   - "end" is terminal and unique per member, and an "abort" is
//     followed only by that member's "end";
//   - every kind is in the EventKinds catalog.
type runChecker struct {
	lastTick map[int]int
	open     map[pairKey]bool
	aborted  map[int]bool
	ended    map[int]bool
	events   int
}

func newRunChecker() *runChecker {
	return &runChecker{
		lastTick: make(map[int]int),
		open:     make(map[pairKey]bool),
		aborted:  make(map[int]bool),
		ended:    make(map[int]bool),
	}
}

// kindCatalog indexes EventKinds by kind name.
var kindCatalog = func() map[string]EventKind {
	m := make(map[string]EventKind)
	for _, k := range EventKinds() {
		m[k.Kind] = k
	}
	return m
}()

// check validates one event against the run's accumulated state and
// returns the violations it introduces.
func (c *runChecker) check(line int, ev Event) []string {
	c.events++
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}
	info, known := kindCatalog[ev.Kind]
	if !known {
		fail("unknown event kind %q", ev.Kind)
		return out
	}
	if last, seen := c.lastTick[ev.Member]; seen && ev.Tick < last {
		fail("member %d tick went backwards: %d after %d", ev.Member, ev.Tick, last)
	}
	c.lastTick[ev.Member] = ev.Tick
	if c.ended[ev.Member] {
		fail("member %d event %q after its end event", ev.Member, ev.Kind)
	} else if c.aborted[ev.Member] && ev.Kind != "end" {
		fail("member %d event %q between abort and end", ev.Member, ev.Kind)
	}
	switch {
	case info.Phased:
		key := pairKey{member: ev.Member, kind: ev.Kind, detail: ev.Detail}
		switch ev.Phase {
		case PhaseEnter:
			if c.open[key] {
				fail("member %d double enter of %s/%s", ev.Member, ev.Kind, ev.Detail)
			}
			c.open[key] = true
		case PhaseExit:
			if !c.open[key] {
				fail("member %d exit of %s/%s without enter", ev.Member, ev.Kind, ev.Detail)
			}
			delete(c.open, key)
		default:
			fail("member %d windowed kind %q needs phase enter or exit, got %q", ev.Member, ev.Kind, ev.Phase)
		}
	case ev.Phase != "":
		fail("member %d point kind %q carries phase %q", ev.Member, ev.Kind, ev.Phase)
	case ev.Kind == "abort":
		c.aborted[ev.Member] = true
	case ev.Kind == "end":
		c.ended[ev.Member] = true
	}
	return out
}

// CheckOptions configures CheckTrace output.
type CheckOptions struct {
	// Timeline prints a human-readable per-run event timeline to Out,
	// one FormatEvent line per event.
	Timeline bool
	// Out receives the timeline and violation report; nil discards it.
	Out io.Writer
}

// CheckTrace reads a JSONL trace (run headers framing per-run event
// blocks, or a bare event stream) and validates the flight-recorder
// ordering invariants. It returns the pass summary; violations are also
// written to opts.Out.
func CheckTrace(r io.Reader, opts CheckOptions) (CheckStats, error) {
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	var stats CheckStats
	var checker *runChecker
	var violations []string
	var declared int
	flush := func() {
		if checker == nil {
			return
		}
		if declared >= 0 && checker.events != declared {
			violations = append(violations, fmt.Sprintf(
				"run header declared %d events, block has %d", declared, checker.events))
		}
		checker = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(raw), &probe); err != nil {
			return stats, fmt.Errorf("line %d: %w", line, err)
		}
		if probe.Kind == runHeaderKind {
			flush()
			var hdr RunHeader
			if err := json.Unmarshal([]byte(raw), &hdr); err != nil {
				return stats, fmt.Errorf("line %d: %w", line, err)
			}
			stats.Runs++
			checker = newRunChecker()
			declared = hdr.Events
			if hdr.Dropped > 0 {
				// A saturated ring loses the block's oldest events:
				// enter/exit pairing and the declared count no longer
				// hold, so only per-line checks apply.
				declared = -1
			}
			if opts.Timeline {
				fmt.Fprintf(out, "run %d gen=%s map=%d sc=%d rep=%d seed=%d (%d events",
					hdr.Run, hdr.Gen, hdr.Map, hdr.Sc, hdr.Rep, hdr.Seed, hdr.Events)
				if hdr.Dropped > 0 {
					fmt.Fprintf(out, ", %d dropped", hdr.Dropped)
				}
				fmt.Fprintf(out, ")\n")
			}
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			return stats, fmt.Errorf("line %d: %w", line, err)
		}
		stats.Events++
		if checker == nil {
			// Bare event stream: check it as one anonymous run.
			checker = newRunChecker()
			declared = -1
		}
		violations = append(violations, checker.check(line, ev)...)
		if opts.Timeline {
			fmt.Fprintf(out, "  %s\n", FormatEvent(ev))
		}
	}
	if err := sc.Err(); err != nil {
		return stats, err
	}
	flush()
	stats.Violations = len(violations)
	for _, v := range violations {
		fmt.Fprintf(out, "VIOLATION %s\n", v)
	}
	return stats, nil
}

// FormatEvent renders one event as a timeline line ("t=%7.2fs  tick
// ..."), no trailing newline: tracecheck -timeline and the bench tools'
// fault timelines print it.
func FormatEvent(ev Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%7.2fs  tick %5d", ev.T, ev.Tick)
	if ev.Member != 0 {
		fmt.Fprintf(&b, "  [m%d]", ev.Member)
	}
	word := ev.Kind
	if ev.Phase == PhaseEnter {
		word = strings.ToUpper(ev.Kind)
	}
	fmt.Fprintf(&b, "  %-12s", word)
	if ev.Phase != "" {
		fmt.Fprintf(&b, " %-5s", ev.Phase)
	}
	if ev.Detail != "" {
		fmt.Fprintf(&b, " %s", ev.Detail)
	}
	if ev.Value != 0 {
		fmt.Fprintf(&b, " (%g)", ev.Value)
	}
	if ev.MemMB != 0 {
		fmt.Fprintf(&b, " %g MB", ev.MemMB)
	}
	return strings.TrimRight(b.String(), " ")
}
