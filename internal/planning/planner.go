// Package planning implements the three path-planning generations the
// paper evaluates (§II-B, §III-C):
//
//   - StraightLine: MLS-V1's no-avoidance direct flight.
//   - AStar: the EGO-Planner-style bounded-pool grid search MLS-V2 used,
//     with a receding local horizon. Its two documented failure modes are
//     structural: pool exhaustion against large obstacles, and planning
//     through space its local map has forgotten.
//   - RRTStar: the OMPL-style sampling planner MLS-V3 adopted, run against
//     the global octree.
//
// A shared Trajectory type turns waypoint paths into timed setpoints with
// corner-speed handling; the overshoot of the trajectory follower at sharp
// RRT* corners reproduces the paper's remaining V3 collision mode.
package planning

import (
	"errors"

	"repro/internal/geom"
	"repro/internal/mapping"
)

// Sentinel planning errors. Callers distinguish exhaustion (the planner
// gave up inside its compute budget — MLS-V2's big-building failure) from
// absence (start or goal unreachable in the map).
var (
	// ErrSearchExhausted means the search pool or iteration budget ran out
	// before a path was found.
	ErrSearchExhausted = errors.New("planning: search pool exhausted")
	// ErrNoPath means the goal is unreachable from the start under the
	// current map.
	ErrNoPath = errors.New("planning: no path to goal")
	// ErrStartBlocked means the start lies inside an inflated obstacle.
	ErrStartBlocked = errors.New("planning: start inside obstacle")
	// ErrGoalBlocked means the goal lies inside an inflated obstacle.
	ErrGoalBlocked = errors.New("planning: goal inside obstacle")
)

// Planner produces a collision-free waypoint path on a map.
type Planner interface {
	// Name identifies the implementation in logs and result tables.
	Name() string
	// Plan returns waypoints from start to goal (inclusive of both). The
	// returned path may end short of goal for horizon-limited planners;
	// callers re-plan as the vehicle advances.
	Plan(start, goal geom.Vec3, m mapping.Map) ([]geom.Vec3, error)
}

// PathLength returns the total Euclidean length of a waypoint path.
func PathLength(path []geom.Vec3) float64 {
	var l float64
	for i := 1; i < len(path); i++ {
		l += path[i].Dist(path[i-1])
	}
	return l
}

// SegmentClear reports whether the segment a-b stays out of inflated
// obstacles, sampling every step meters.
func SegmentClear(m mapping.Map, a, b geom.Vec3, step float64) bool {
	if step <= 0 {
		step = m.Resolution() / 2
		if step <= 0 {
			step = 0.25
		}
	}
	l := a.Dist(b)
	n := int(l/step) + 1
	for i := 0; i <= n; i++ {
		p := a.Lerp(b, float64(i)/float64(n))
		if m.Blocked(p) {
			return false
		}
	}
	return true
}

// PathClear reports whether every segment of the path is clear.
func PathClear(m mapping.Map, path []geom.Vec3, step float64) bool {
	for i := 1; i < len(path); i++ {
		if !SegmentClear(m, path[i-1], path[i], step) {
			return false
		}
	}
	return true
}

// Shortcut greedily removes interior waypoints whose bypass segment is
// collision-free, reducing the corner count of grid and tree paths.
func Shortcut(m mapping.Map, path []geom.Vec3, step float64) []geom.Vec3 {
	if len(path) <= 2 {
		return path
	}
	out := make([]geom.Vec3, 0, len(path))
	out = append(out, path[0])
	i := 0
	for i < len(path)-1 {
		// Find the farthest j reachable in a straight clear line.
		j := i + 1
		for k := len(path) - 1; k > j; k-- {
			if SegmentClear(m, path[i], path[k], step) {
				j = k
				break
			}
		}
		out = append(out, path[j])
		i = j
	}
	return out
}

// liftClear raises p vertically in half-resolution steps until it leaves
// inflated space, up to maxLift meters (bounded by maxZ). Start and goal
// points frequently sit inside inflation (a vehicle braking at an obstacle,
// a landing site beside a wall); a vertical nudge is the standard escape.
func liftClear(m mapping.Map, p geom.Vec3, maxZ, maxLift float64) (geom.Vec3, bool) {
	if !m.Blocked(p) {
		return p, true
	}
	step := m.Resolution() / 2
	if step <= 0 {
		step = 0.25
	}
	for dz := step; dz <= maxLift; dz += step {
		q := p.WithZ(p.Z + dz)
		if q.Z > maxZ {
			break
		}
		if !m.Blocked(q) {
			return q, true
		}
	}
	return p, false
}

// StraightLine is MLS-V1's planner: fly directly at the goal. It consults
// no map, which is exactly why the first generation collides with scenery.
type StraightLine struct{}

// Name implements Planner.
func (StraightLine) Name() string { return "straight-line" }

// Plan implements Planner.
func (StraightLine) Plan(start, goal geom.Vec3, _ mapping.Map) ([]geom.Vec3, error) {
	return []geom.Vec3{start, goal}, nil
}

var _ Planner = StraightLine{}
