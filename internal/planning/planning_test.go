package planning

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mapping"
)

// wallMap builds an octree with a large wall at x=10 spanning y in
// [-width/2, width/2], z in [0, height], observed from above.
func wallMap(width, height float64) *mapping.Octree {
	o := mapping.NewOctree(geom.V3(10, 0, 10), 64, 0.5, 1.0)
	for y := -width / 2; y <= width/2; y += 0.4 {
		for z := 0.25; z <= height; z += 0.4 {
			for _, dx := range []float64{-0.2, 0.2} {
				// Zero-length hit rays register the surface voxel without
				// sweeping miss updates through neighboring wall cells.
				p := geom.V3(10+dx, y, z)
				o.InsertRay(p, p, true)
			}
		}
	}
	return o
}

func TestStraightLine(t *testing.T) {
	p, err := StraightLine{}.Plan(geom.V3(0, 0, 5), geom.V3(10, 0, 5), mapping.NullMap{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || p[0] != geom.V3(0, 0, 5) || p[1] != geom.V3(10, 0, 5) {
		t.Errorf("path = %v", p)
	}
}

func TestPathLength(t *testing.T) {
	path := []geom.Vec3{{}, geom.V3(3, 4, 0), geom.V3(3, 4, 5)}
	if got := PathLength(path); math.Abs(got-10) > 1e-12 {
		t.Errorf("length = %v", got)
	}
	if PathLength(nil) != 0 {
		t.Error("empty path length")
	}
}

func TestSegmentClear(t *testing.T) {
	m := wallMap(10, 8)
	if SegmentClear(m, geom.V3(0, 0, 4), geom.V3(20, 0, 4), 0.25) {
		t.Error("segment through wall reported clear")
	}
	if !SegmentClear(m, geom.V3(0, 0, 15), geom.V3(20, 0, 15), 0.25) {
		t.Error("segment above wall reported blocked")
	}
}

func TestAStarGoesAroundWall(t *testing.T) {
	m := wallMap(10, 8)
	a := NewAStar(DefaultAStarConfig())
	start := geom.V3(0, 0, 4)
	goal := geom.V3(20, 0, 4)
	path, err := a.Plan(start, goal, m)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(path) < 2 {
		t.Fatalf("degenerate path %v", path)
	}
	if path[0].Dist(start) > 0.1 {
		t.Errorf("path starts at %v", path[0])
	}
	if path[len(path)-1].Dist(goal) > 1.5 {
		t.Errorf("path ends at %v, want ~%v", path[len(path)-1], goal)
	}
	if !PathClear(m, path, 0.3) {
		t.Error("A* path not collision-free")
	}
	// Must be longer than the straight line (it detours).
	if PathLength(path) <= 20 {
		t.Errorf("path length %v suspiciously short", PathLength(path))
	}
}

// TestAStarPoolExhaustion reproduces the paper's Fig. 5a mechanism: a
// building too large for the search pool makes bounded A* give up where a
// bigger budget (or RRT*) succeeds.
func TestAStarPoolExhaustion(t *testing.T) {
	m := wallMap(60, 26) // large building
	small := NewAStar(AStarConfig{MaxExpansions: 500, Horizon: 25, MinZ: 0.8, MaxZ: 40})
	big := NewAStar(AStarConfig{MaxExpansions: 400000, Horizon: 60, MinZ: 0.8, MaxZ: 40})

	start := geom.V3(0, 0, 4)
	goal := geom.V3(20, 0, 4)
	if _, err := small.Plan(start, goal, m); !errors.Is(err, ErrSearchExhausted) {
		t.Errorf("small pool err = %v, want ErrSearchExhausted", err)
	}
	if _, err := big.Plan(start, goal, m); err != nil {
		t.Errorf("big pool err = %v, want success", err)
	}
}

func TestAStarHorizonProjection(t *testing.T) {
	m := mapping.NewOctree(geom.V3(0, 0, 10), 128, 0.5, 1.0)
	a := NewAStar(AStarConfig{MaxExpansions: 20000, Horizon: 20, MinZ: 0.8, MaxZ: 40})
	start := geom.V3(0, 0, 10)
	goal := geom.V3(100, 0, 10)
	path, err := a.Plan(start, goal, m)
	if err != nil {
		t.Fatal(err)
	}
	end := path[len(path)-1]
	if d := end.Dist(start); d > 22 {
		t.Errorf("horizon-limited path end %.1f m from start, want <= ~20", d)
	}
	// The end should make progress toward the goal.
	if end.Dist(goal) >= goal.Dist(start)-15 {
		t.Errorf("no progress: end %v", end)
	}
}

func TestAStarStartGoalBlocked(t *testing.T) {
	m := wallMap(10, 8)
	a := NewAStar(DefaultAStarConfig())
	if _, err := a.Plan(geom.V3(10, 0, 4), geom.V3(20, 0, 4), m); !errors.Is(err, ErrStartBlocked) {
		t.Errorf("blocked start err = %v", err)
	}
	// Goal inside the wall but liftable: goal at wall face low z is inside
	// inflation; the planner lifts and may succeed or report blocked, but
	// must not return a colliding path.
	path, err := a.Plan(geom.V3(0, 0, 4), geom.V3(10, 0, 4), m)
	if err == nil && !PathClear(m, path, 0.3) {
		t.Error("planner returned colliding path for blocked goal")
	}
}

func TestRRTStarGoesAroundWall(t *testing.T) {
	m := wallMap(14, 9)
	r := NewRRTStar(DefaultRRTStarConfig(), 42)
	start := geom.V3(0, 0, 4)
	goal := geom.V3(20, 0, 4)
	path, err := r.Plan(start, goal, m)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if path[0].Dist(start) > 0.1 || path[len(path)-1].Dist(goal) > 1.5 {
		t.Errorf("endpoints %v .. %v", path[0], path[len(path)-1])
	}
	if !PathClear(m, path, 0.3) {
		t.Error("RRT* path not collision-free")
	}
}

// TestRRTStarBeatsBoundedAStarOnLargeObstacle is the planner half of the
// paper's V2→V3 argument: with realistic per-cycle budgets, bounded A*
// fails against a large building while RRT* against the global map finds a
// route.
func TestRRTStarBeatsBoundedAStarOnLargeObstacle(t *testing.T) {
	m := wallMap(60, 26)
	a := NewAStar(AStarConfig{MaxExpansions: 3000, Horizon: 25, MinZ: 0.8, MaxZ: 40})
	r := NewRRTStar(DefaultRRTStarConfig(), 7)

	start := geom.V3(0, 0, 4)
	goal := geom.V3(20, 0, 4)
	_, aErr := a.Plan(start, goal, m)
	path, rErr := r.Plan(start, goal, m)
	if aErr == nil {
		t.Error("bounded A* unexpectedly solved the large obstacle")
	}
	if rErr != nil {
		t.Fatalf("RRT* failed: %v", rErr)
	}
	if !PathClear(m, path, 0.3) {
		t.Error("RRT* path collides")
	}
}

func TestRRTStarDeterministicWithSeed(t *testing.T) {
	m := wallMap(10, 8)
	p1, err1 := NewRRTStar(DefaultRRTStarConfig(), 5).Plan(geom.V3(0, 0, 4), geom.V3(20, 0, 4), m)
	p2, err2 := NewRRTStar(DefaultRRTStarConfig(), 5).Plan(geom.V3(0, 0, 4), geom.V3(20, 0, 4), m)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("determinism: %v vs %v", err1, err2)
	}
	if len(p1) != len(p2) {
		t.Fatalf("path lengths differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("paths differ")
		}
	}
}

func TestRRTStarBlockedEndpoints(t *testing.T) {
	m := wallMap(10, 8)
	r := NewRRTStar(DefaultRRTStarConfig(), 3)
	if _, err := r.Plan(geom.V3(10, 0, 4), geom.V3(20, 0, 4), m); !errors.Is(err, ErrStartBlocked) {
		t.Errorf("start blocked err = %v", err)
	}
}

func TestShortcutPreservesEndpointsAndClearance(t *testing.T) {
	m := wallMap(10, 8)
	// A zig-zag path above the wall.
	path := []geom.Vec3{
		{X: 0, Y: 0, Z: 12}, {X: 2, Y: 3, Z: 12}, {X: 5, Y: -2, Z: 13},
		{X: 9, Y: 2, Z: 12}, {X: 14, Y: -1, Z: 12}, {X: 20, Y: 0, Z: 12},
	}
	out := Shortcut(m, path, 0.25)
	if out[0] != path[0] || out[len(out)-1] != path[len(path)-1] {
		t.Error("shortcut moved endpoints")
	}
	if len(out) > len(path) {
		t.Error("shortcut grew the path")
	}
	if !PathClear(m, out, 0.3) {
		t.Error("shortcut introduced a collision")
	}
	// Fully clear line: should collapse to 2 points.
	if out2 := Shortcut(m, path, 0.25); len(out2) != 2 {
		t.Errorf("clear path should collapse to 2 waypoints, got %d", len(out2))
	}
}

func TestShortcutSmall(t *testing.T) {
	m := mapping.NullMap{}
	if got := Shortcut(m, nil, 0.25); got != nil {
		t.Error("nil path")
	}
	two := []geom.Vec3{{}, geom.V3(1, 0, 0)}
	if got := Shortcut(m, two, 0.25); len(got) != 2 {
		t.Error("two-point path should be unchanged")
	}
}

func TestTurnAngle(t *testing.T) {
	a, b := geom.V3(0, 0, 0), geom.V3(1, 0, 0)
	if got := TurnAngle(a, b, geom.V3(2, 0, 0)); math.Abs(got) > 1e-9 {
		t.Errorf("straight = %v", got)
	}
	if got := TurnAngle(a, b, geom.V3(1, 1, 0)); math.Abs(got-math.Pi/2) > 1e-9 {
		t.Errorf("right angle = %v", got)
	}
	if got := TurnAngle(a, b, geom.V3(0, 0, 0)); math.Abs(got-math.Pi) > 1e-9 {
		t.Errorf("reversal = %v", got)
	}
	if got := TurnAngle(a, a, a); got != 0 {
		t.Errorf("degenerate = %v", got)
	}
}

func TestMaxTurnAngle(t *testing.T) {
	path := []geom.Vec3{{}, geom.V3(1, 0, 0), geom.V3(2, 0.1, 0), geom.V3(2, 2, 0)}
	got := MaxTurnAngle(path)
	if got < 1 {
		t.Errorf("max turn angle = %v, want the sharp corner", got)
	}
	if MaxTurnAngle(path[:2]) != 0 {
		t.Error("two-point path has no corners")
	}
}

func TestTrajectoryTiming(t *testing.T) {
	path := []geom.Vec3{{}, geom.V3(8, 0, 0), geom.V3(8, 8, 0)}
	tr := BuildTrajectory(path, TrajectoryConfig{Speed: 4, CornerSlowdown: 0, DescentSpeed: 2})
	if tr.Duration() <= 0 {
		t.Fatal("zero duration")
	}
	// Without slowdown: 16m at 4 m/s = 4s.
	if math.Abs(tr.Duration()-4) > 1e-9 {
		t.Errorf("duration = %v, want 4", tr.Duration())
	}
	// Times strictly increasing.
	for i := 1; i < len(tr.Times); i++ {
		if tr.Times[i] <= tr.Times[i-1] {
			t.Error("times not increasing")
		}
	}
}

func TestTrajectoryCornerSlowdown(t *testing.T) {
	path := []geom.Vec3{{}, geom.V3(8, 0, 0), geom.V3(8, 8, 0)}
	fast := BuildTrajectory(path, TrajectoryConfig{Speed: 4, CornerSlowdown: 0, DescentSpeed: 2})
	slow := BuildTrajectory(path, TrajectoryConfig{Speed: 4, CornerSlowdown: 0.9, DescentSpeed: 2})
	if slow.Duration() <= fast.Duration() {
		t.Errorf("corner slowdown did not lengthen duration: %v vs %v",
			slow.Duration(), fast.Duration())
	}
}

func TestTrajectoryDescentCap(t *testing.T) {
	path := []geom.Vec3{geom.V3(0, 0, 10), geom.V3(0, 0, 0)}
	tr := BuildTrajectory(path, TrajectoryConfig{Speed: 4, DescentSpeed: 1})
	// 10m descent at <= 1 m/s vertical -> >= 10s.
	if tr.Duration() < 10-1e-9 {
		t.Errorf("descent duration = %v, want >= 10", tr.Duration())
	}
}

func TestTrajectorySample(t *testing.T) {
	path := []geom.Vec3{{}, geom.V3(4, 0, 0)}
	tr := BuildTrajectory(path, TrajectoryConfig{Speed: 4, DescentSpeed: 2})
	pos, vel := tr.Sample(0.5)
	if !pos.ApproxEq(geom.V3(2, 0, 0), 1e-9) {
		t.Errorf("midpoint = %v", pos)
	}
	if math.Abs(vel.X-4) > 1e-9 {
		t.Errorf("velocity = %v", vel)
	}
	// Clamping.
	if p, _ := tr.Sample(-1); p != path[0] {
		t.Error("pre-start clamp")
	}
	if p, _ := tr.Sample(100); p != path[1] {
		t.Error("post-end clamp")
	}
	// Degenerate trajectories.
	var empty Trajectory
	if p, v := empty.Sample(1); p != (geom.Vec3{}) || v != (geom.Vec3{}) {
		t.Error("empty trajectory sample")
	}
	if empty.End() != (geom.Vec3{}) {
		t.Error("empty End")
	}
}
