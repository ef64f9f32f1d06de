package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Event is one flight-recorder entry: a tick-stamped structured record of
// something the mission runner observed. Events derive only from
// already-deterministic simulation state (tick index, simulated time,
// fault/plan/separation state) — never from wall clocks or goroutine
// interleaving — so the trace of a run is a pure function of
// (seed, Spec) and byte-identical at any worker count.
//
// JSON field order is fixed by the struct; encoding/json emits struct
// fields in declaration order, which makes the JSONL encoding canonical.
type Event struct {
	// Tick is the control-loop tick index the event was recorded at.
	Tick int `json:"tick"`
	// T is the simulated time in seconds. For fault edges this is the
	// plan's window edge time, which may lead Tick's time by a fraction
	// of a tick.
	T float64 `json:"t"`
	// Member is the fleet member index (0, the solo drone, is omitted —
	// a solo trace and fleet member 0's trace are identical).
	Member int `json:"member,omitempty"`
	// Kind is the event kind; EventKinds enumerates the closed set.
	Kind string `json:"kind"`
	// Detail refines the kind (fault kind, capture payload, plan
	// disposition, separation band, abort cause, outcome).
	Detail string `json:"detail,omitempty"`
	// Phase is "enter" or "exit" for windowed kinds (fault, blackout,
	// degraded), empty for point events.
	Phase string `json:"phase,omitempty"`
	// Value carries a kind-specific number (apply: delivery lag in
	// ticks; separation: the other member's index; resource: aggregate
	// CPU percent).
	Value float64 `json:"value,omitempty"`
	// MemMB is a resource sample's resident memory in megabytes.
	MemMB float64 `json:"mem_mb,omitempty"`
}

// Phase values of windowed event kinds.
const (
	PhaseEnter = "enter"
	PhaseExit  = "exit"
)

// Recorder receives flight-recorder events. The runner records only from
// the mission's control-loop goroutine, so implementations need not be
// goroutine-safe. A nil Recorder (the default) keeps the runner on its
// untraced hot path: one pointer check per site, no allocations.
type Recorder interface {
	Record(Event)
}

// Trace is a bounded flight recorder: a ring buffer that keeps the most
// recent capacity events and counts the overwritten rest. Not
// goroutine-safe (see Recorder).
type Trace struct {
	buf     []Event
	start   int
	n       int
	dropped int
}

// NewTrace returns a recorder keeping the last capacity events.
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Record appends ev, overwriting the oldest event when full.
func (t *Trace) Record(ev Event) {
	if t.n < len(t.buf) {
		t.buf[(t.start+t.n)%len(t.buf)] = ev
		t.n++
		return
	}
	t.buf[t.start] = ev
	t.start = (t.start + 1) % len(t.buf)
	t.dropped++
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []Event {
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	return out
}

// Dropped reports how many events were overwritten.
func (t *Trace) Dropped() int { return t.dropped }

// EventKind documents one flight-recorder event kind for the catalog
// (docs/observability.md is drift-guarded against EventKinds).
type EventKind struct {
	// Kind is the Event.Kind value.
	Kind string
	// Detail documents the Detail field's contents ("-" when unused).
	Detail string
	// Phased kinds emit matched enter/exit pairs via Phase (a mission
	// may terminate with a window still open).
	Phased bool
	// Help is the one-line description.
	Help string
}

// EventKinds returns the closed catalog of event kinds, in the order a
// mission can first emit them.
func EventKinds() []EventKind {
	return []EventKind{
		{Kind: "fault", Detail: "fault kind", Phased: true,
			Help: "an injected fault window activated or cleared at the simulation boundary"},
		{Kind: "blackout", Detail: "-", Phased: true,
			Help: "comms blackout hold: commands frozen at the last pre-blackout value"},
		{Kind: "degraded", Detail: "-", Phased: true,
			Help: "the injector reports the mission degraded (any active fault window)"},
		{Kind: "capture", Detail: "depth, frame, or depth+frame",
			Help: "perception capture submitted for the sensors due this tick (recorded before fault dropouts apply)"},
		{Kind: "apply", Detail: "depth, frame, depth+frame, or none",
			Help: "perception result applied to the control epoch; value is the delivery lag in ticks (0 inline, k pipelined)"},
		{Kind: "plan-request", Detail: "-",
			Help: "asynchronous replan submitted to the staged planner"},
		{Kind: "plan-deliver", Detail: "applied, fallback, or failsafe",
			Help: "staged plan delivered to the flight system and its disposition"},
		{Kind: "plan-stale", Detail: "-",
			Help: "staged plan dropped: the flight state changed between request and delivery"},
		{Kind: "plan-abandon", Detail: "-",
			Help: "staged plan discarded because it came due during a comms blackout"},
		{Kind: "separation", Detail: "near-miss or violation",
			Help: "a fleet pair tightened its separation band; value is the other member's index"},
		{Kind: "resource", Detail: "-",
			Help: "one second of platform load on a hardware campaign's board; value is aggregate CPU percent, mem_mb resident memory"},
		{Kind: "abort", Detail: "abort cause",
			Help: "the mission ended aborted; emitted immediately before end with the proximate cause"},
		{Kind: "end", Detail: "mission outcome",
			Help: "terminal event: the mission's final outcome (exactly one per member)"},
	}
}

// RunHeader is the per-run framing line of a campaign trace file: one
// header line, then that run's events, then the next run's header. Kind
// is always "run" (no event kind collides with it).
type RunHeader struct {
	Kind    string `json:"kind"`
	Run     int    `json:"run"`
	Gen     string `json:"gen"`
	Map     int    `json:"map"`
	Sc      int    `json:"sc"`
	Rep     int    `json:"rep"`
	Seed    int64  `json:"seed"`
	Events  int    `json:"events"`
	Dropped int    `json:"dropped,omitempty"`
}

// runHeaderKind is the Kind value framing a run in a trace file.
const runHeaderKind = "run"

// WriteRunTrace writes one run's framing header and events as JSONL.
func WriteRunTrace(w io.Writer, hdr RunHeader, events []Event, dropped int) error {
	hdr.Kind = runHeaderKind
	hdr.Events = len(events)
	hdr.Dropped = dropped
	line, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
		return err
	}
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}
