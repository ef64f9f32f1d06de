package scenario

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/worldgen"
)

// Fleet worlds: N drones flying one immutable world in deterministic
// lockstep. Every member is a full mission — its own system under test,
// its own sensor suite, its own per-concern RNG streams — sharing the
// ref-counted world; the members sense each other through a sim.Overlay
// rebuilt from start-of-tick positions, so inter-drone sensing is
// symmetric within a tick and the whole run is a pure function of
// (seed, FleetSpec). Member 0 is the primary: it keeps the run's seed,
// fault plan and platform model, so its sensor streams are exactly what
// a solo run of the same cell would draw. See docs/fleet.md.

// Fleet geometry and deconfliction thresholds.
const (
	// MaxFleetSize bounds the -fleet grammar; large fleets belong on a
	// campaign axis (many cells), not in one run.
	MaxFleetSize = 64
	// DefaultFleetSpacing is the spawn-ring spacing (meters) when the
	// spec does not choose one. Spacing is the fleet density axis:
	// smaller spacing packs the same fleet into less airspace.
	DefaultFleetSpacing = 6.0
	// SeparationMin is the airspace separation floor (meters): a pair
	// closing inside it is a separation violation.
	SeparationMin = 2.0
	// NearMissRadius bounds the near-miss shell [SeparationMin,
	// NearMissRadius): a pair entering it counts one near miss.
	NearMissRadius = 5.0
)

// FleetSpec is the fleet knob of a Timing profile: how many drones fly
// the run and how densely they spawn. The zero Spacing selects
// DefaultFleetSpacing at run time, so wire encodings stay minimal.
type FleetSpec struct {
	Size    int     `json:"size"`
	Spacing float64 `json:"spacing,omitempty"`
}

// Active reports whether the spec actually changes the engine: nil and
// Size <= 1 are the solo engine (Timing.Canonical normalizes both to
// nil, so they sign identically).
func (f *FleetSpec) Active() bool { return f != nil && f.Size >= 2 }

// String renders the spec in the -fleet grammar; ParseFleet is its
// inverse (the fuzz target pins the round trip).
func (f *FleetSpec) String() string {
	if f == nil {
		return ""
	}
	if f.Spacing == 0 {
		return strconv.Itoa(f.Size)
	}
	return fmt.Sprintf("%d:spacing=%g", f.Size, f.Spacing)
}

// spacing returns the effective spawn spacing.
func (f *FleetSpec) spacing() float64 {
	if f.Spacing > 0 {
		return f.Spacing
	}
	return DefaultFleetSpacing
}

// ParseFleet parses the -fleet flag grammar:
//
//	""                   no fleet (nil spec)
//	"n"                  n drones at the default spacing
//	"n:spacing=m"        n drones spawned m meters apart
//
// Size must be 1..MaxFleetSize (1 parses but is the solo engine);
// spacing must be a finite value in (0, 100]. Surrounding whitespace is
// tolerated, like the -faults grammar.
func ParseFleet(s string) (*FleetSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	sizeStr, rest, hasOpts := strings.Cut(s, ":")
	size, err := strconv.Atoi(strings.TrimSpace(sizeStr))
	if err != nil {
		return nil, fmt.Errorf("scenario: fleet size %q: want an integer", strings.TrimSpace(sizeStr))
	}
	if size < 1 || size > MaxFleetSize {
		return nil, fmt.Errorf("scenario: fleet size %d out of range 1..%d", size, MaxFleetSize)
	}
	f := &FleetSpec{Size: size}
	if hasOpts {
		for _, opt := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(opt, "=")
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			if !ok || val == "" {
				return nil, fmt.Errorf("scenario: fleet option %q: want key=value", strings.TrimSpace(opt))
			}
			switch key {
			case "spacing":
				g, err := strconv.ParseFloat(val, 64)
				if err != nil || math.IsNaN(g) || math.IsInf(g, 0) {
					return nil, fmt.Errorf("scenario: fleet spacing %q: want a finite number", val)
				}
				if g <= 0 || g > 100 {
					return nil, fmt.Errorf("scenario: fleet spacing %g out of range (0, 100]", g)
				}
				f.Spacing = g
			default:
				return nil, fmt.Errorf("scenario: unknown fleet option %q (want spacing)", key)
			}
		}
	}
	return f, nil
}

// fleetMemberSeed derives wingman member's run seed from the primary run
// seed through the per-concern mixer, twice: once to leave the run's own
// concern family, once to split by member index. Member 0 is the primary
// and keeps the run seed itself — its streams are exactly a solo run's.
func fleetMemberSeed(runSeed int64, member int) int64 {
	if member == 0 {
		return runSeed
	}
	return subSeed(subSeed(runSeed, concernFleetMember), rngConcern(member))
}

// goldenAngle places wingman spawns on a sunflower spiral: successive
// members never align, and density is uniform in area.
const goldenAngle = 2.399963229728653

// fleetSpawn returns wingman member's deterministic spawn position: the
// sunflower-spiral point at the spec's spacing, nudged around the spiral
// (still deterministically — no RNG) when the nominal point is blocked or
// elevated. The primary always spawns at the scenario origin.
func fleetSpawn(w *sim.World, member int, spacing, radius float64) geom.Vec3 {
	for k := 0; k < 16; k++ {
		ang := float64(member)*goldenAngle + float64(k)*goldenAngle/7
		rad := spacing * math.Sqrt(float64(member)) * (1 + 0.1*float64(k))
		p := geom.V3(rad*math.Cos(ang), rad*math.Sin(ang), 0.15)
		if !w.Bounds.Contains(p) {
			continue
		}
		if !w.HitObstacle(p, radius) && w.GroundHeightAt(p.X, p.Y) == 0 {
			return p
		}
	}
	// Deterministic last resort; the first collision check will judge it.
	return geom.V3(spacing*float64(member), 0, 0.15)
}

// runFleet flies a whole fleet through one run and returns the primary's
// Result extended with the airspace-deconfliction metrics. Called from
// Run when the fleet knob is active; the solo engine never reaches it.
//
// The lockstep protocol per tick: (1) rebuild the overlay from every
// airborne member's start-of-tick position; (2) advance each airborne
// member by one control tick — every sensor sees the same overlay
// snapshot and each member owns its system, sensors and RNG streams, so
// the member ticks are independent and the crew below may fly them on
// idle cores in any order; (3) in member order, finalize the members
// that ended and flush their trace events; (4) run the pairwise
// separation accounting on the post-tick positions. Members that land or
// crash leave the overlay (and the airspace) from the next tick on.
// Everything but the member ticks runs on the caller's goroutine, so the
// run is the same bits at any GOMAXPROCS.
//
// Composition: fleet mode always flies the exact inline engine — the
// pipelined, fast and staged-planner knobs are ignored for the members
// (cliutil rejects the flag combinations up front). The fault plan rides
// the primary only, which is the campaign axis the fault-sweep wants:
// one drone's degradation stressing its neighbors' airspace.
func runFleet(sc *worldgen.Scenario, sys *core.System, cfg RunConfig, fl *FleetSpec) Result {
	n := fl.Size
	spacing := fl.spacing()

	t := cfg.Timing
	t.Pipeline = PipelineOff
	t.PipelineLatencyTicks = 0
	t.Fast = false
	t.PlanLatencyTicks = 0

	gen := sys.Config().Generation
	members := make([]*mission, n)
	// A traced fleet's members record into their own buffers, which the
	// runner flushes into cfg.Recorder in member order: the recorder sees
	// the serial order and is only ever called on this goroutine.
	bufs := make([]eventBuffer, n)
	ov := sim.NewOverlay()
	for j := 0; j < n; j++ {
		mcfg := cfg
		mcfg.Timing = t
		msys := sys
		if j > 0 {
			mcfg.Seed = fleetMemberSeed(cfg.Seed, j)
			mcfg.Platform = nil
			mcfg.Timing.Faults = nil
			var err error
			msys, err = BuildSystem(gen, sc, mcfg.Seed)
			if err != nil {
				// BuildSystem fails only on an unknown generation, which
				// cannot happen: sys was built with this generation.
				panic(fmt.Sprintf("scenario: fleet member system: %v", err))
			}
		}
		m := newMission(sc, msys, mcfg)
		m.member = j
		if cfg.Recorder != nil {
			m.rec = &bufs[j]
		}
		if j > 0 {
			m.drone = sim.NewDrone(sim.DefaultDroneConfig(), fleetSpawn(sc.World, j, spacing, m.drone.Cfg.Radius))
		}
		m.depth.SetOverlay(ov, int32(j))
		m.lidar.SetOverlay(ov, int32(j))
		members[j] = m
	}

	// Pairwise separation state: 0 = clear, 1 = near-miss shell, 2 =
	// violation. Events count band entries (upward transitions only).
	band := make([]uint8, n*n)
	nearMisses, violations := 0, 0

	c := newCrew(members)
	defer c.stop()
	status := c.status
	for i := 0; i < members[0].steps; i++ {
		c.airborne = c.airborne[:0]
		for j := range members {
			if status[j] == tickContinue {
				c.airborne = append(c.airborne, j)
			}
		}
		if len(c.airborne) == 0 {
			break
		}
		ov.Reset()
		for _, j := range c.airborne {
			ov.Add(int32(j), members[j].drone.Pos, members[j].drone.Cfg.Radius)
		}
		ov.Rebuild()

		c.fly(i)
		for _, j := range c.airborne {
			if status[j] == tickDone {
				members[j].classify()
			}
			bufs[j].flushTo(cfg.Recorder)
		}

		// Separation accounting over the members still airborne. The
		// substrate does not model mid-air collision dynamics: a pair
		// inside the floor is counted and flies on, which keeps the
		// metric a pure observation (no feedback into the outcomes
		// beyond what the drones sensed of each other).
		for a := 0; a < n; a++ {
			if status[a] != tickContinue {
				continue
			}
			for b := a + 1; b < n; b++ {
				if status[b] != tickContinue {
					continue
				}
				d := members[a].drone.Pos.Dist(members[b].drone.Pos)
				var nb uint8
				if d < SeparationMin {
					nb = 2
				} else if d < NearMissRadius {
					nb = 1
				}
				prev := band[a*n+b]
				if nb >= 1 && prev < 1 {
					nearMisses++
				}
				if nb == 2 && prev < 2 {
					violations++
				}
				if rec := cfg.Recorder; rec != nil && nb > prev {
					// Band entries only, matching the metric: the event
					// carries the pair as (member=a, value=b).
					detail := "near-miss"
					if nb == 2 {
						detail = "violation"
					}
					rec.Record(obs.Event{Tick: i, T: members[a].now, Member: a,
						Kind: "separation", Detail: detail, Value: float64(b)})
				}
				band[a*n+b] = nb
			}
		}
	}
	for j, m := range members {
		if status[j] == tickContinue {
			m.classify()
			bufs[j].flushTo(cfg.Recorder)
		}
		m.finish()
	}

	res := members[0].res
	res.FleetSize = n
	succ := 0
	for _, m := range members {
		if m.res.Outcome == Success {
			succ++
		}
	}
	res.FleetSuccesses = succ
	res.NearMisses = nearMisses
	res.SeparationViolations = violations
	b := sc.World.Bounds
	if areaKm2 := (b.Max.X - b.Min.X) * (b.Max.Y - b.Min.Y) / 1e6; areaKm2 > 0 {
		res.FleetThroughput = float64(succ) / areaKm2
	}
	return res
}

// crew ticks a fleet's airborne members: the runner's goroutine plus up
// to min(n, GOMAXPROCS) − 1 helpers parked for the run, all taking member
// indices from one cursor. A tick borrows helpers only onto idle cores —
// GOMAXPROCS less the missions in flight process-wide — and only when
// two or more members have perception due, so a campaign that already
// keeps every core busy flies its fleets serially, on the same loop,
// rather than oversubscribing the scheduler.
type crew struct {
	members []*mission
	// status is each member's latest tick verdict; a member's entry is
	// written only by the goroutine that ticked it.
	status []tickStatus
	// airborne lists the members flying this tick, in member order, and
	// next is the cursor over it.
	airborne []int
	next     atomic.Int32
	tick     int
	// wake holds one token per helper woken this tick, with room for
	// every helper so waking never blocks the runner; done counts the
	// woken helpers still working.
	helpers int
	wake    chan struct{}
	done    sync.WaitGroup
}

// newCrew parks the run's helpers; with GOMAXPROCS 1 it starts none.
func newCrew(members []*mission) *crew {
	n := len(members)
	c := &crew{
		members:  members,
		status:   make([]tickStatus, n),
		airborne: make([]int, 0, n),
		helpers:  min(n, runtime.GOMAXPROCS(0)) - 1,
	}
	if c.helpers > 0 {
		c.wake = make(chan struct{}, c.helpers)
		for h := 0; h < c.helpers; h++ {
			go c.help()
		}
	}
	return c
}

// help is a parked helper: each wake-up joins one tick's work.
func (c *crew) help() {
	for range c.wake {
		c.work()
		c.done.Done()
	}
	c.done.Done()
}

// work ticks airborne members until the cursor passes the last one.
func (c *crew) work() {
	for {
		k := int(c.next.Add(1)) - 1
		if k >= len(c.airborne) {
			return
		}
		j := c.airborne[k]
		c.status[j] = c.members[j].tick(c.tick)
	}
}

// fly advances every airborne member by tick i and returns once all have.
func (c *crew) fly(i int) {
	c.tick = i
	c.next.Store(0)
	// A member without perception due ticks in less time than waking a
	// helper costs, so only members with perception due count.
	due := 0
	for _, j := range c.airborne {
		if c.members[j].perceptionDue() {
			due++
		}
	}
	borrow := min(runtime.GOMAXPROCS(0)-int(inFlight.Load()), c.helpers, due-1)
	if borrow > 0 {
		c.done.Add(borrow)
		for h := 0; h < borrow; h++ {
			c.wake <- struct{}{}
		}
	}
	c.work()
	c.done.Wait()
}

// stop releases the parked helpers and returns once they have exited.
func (c *crew) stop() {
	if c.wake != nil {
		c.done.Add(c.helpers)
		close(c.wake)
		c.done.Wait()
	}
}

// eventBuffer holds one fleet member's trace events until the runner
// flushes them; its storage is reused tick after tick.
type eventBuffer struct{ events []obs.Event }

// Record implements obs.Recorder.
func (b *eventBuffer) Record(ev obs.Event) { b.events = append(b.events, ev) }

// flushTo hands the buffered events to rec in recording order; an
// untraced member's buffer stays empty, so rec may then be nil.
func (b *eventBuffer) flushTo(rec obs.Recorder) {
	for _, ev := range b.events {
		rec.Record(ev)
	}
	b.events = b.events[:0]
}
