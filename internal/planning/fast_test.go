package planning

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mapping"
)

// clutteredOctree inserts random hit rays so the map carries a realistic
// mix of occupied, free, and unknown voxels.
func clutteredOctree(seed int64) *mapping.Octree {
	rng := rand.New(rand.NewSource(seed))
	o := mapping.NewOctree(geom.V3(0, 0, 16), 128, 0.5, 1.0)
	for i := 0; i < 400; i++ {
		p := geom.V3((rng.Float64()-0.5)*80, (rng.Float64()-0.5)*80, rng.Float64()*25)
		o.InsertRay(p, p, true)
	}
	return o
}

// TestFastSegmentClearMatchesExact: the deduplicated kernel probes the same
// voxels the exact walk does (minus repeats), so on randomly-placed
// segments — which land on voxel faces with probability zero — the two
// must agree everywhere.
func TestFastSegmentClearMatchesExact(t *testing.T) {
	m := clutteredOctree(3)
	rng := rand.New(rand.NewSource(17))
	agree, blocked := 0, 0
	for i := 0; i < 5000; i++ {
		a := geom.V3((rng.Float64()-0.5)*80, (rng.Float64()-0.5)*80, rng.Float64()*25)
		b := a.Add(geom.V3((rng.Float64()-0.5)*12, (rng.Float64()-0.5)*12, (rng.Float64()-0.5)*6))
		exact := SegmentClear(m, a, b, 0.3)
		fast := fastSegmentClear(m, a, b, 0.3)
		if exact != fast {
			t.Fatalf("segment %d (%v -> %v): exact=%v fast=%v", i, a, b, exact, fast)
		}
		agree++
		if !exact {
			blocked++
		}
	}
	// The sweep must actually exercise both outcomes.
	if blocked == 0 || blocked == agree {
		t.Fatalf("degenerate sweep: %d blocked of %d", blocked, agree)
	}
}

// TestFastShortcutMatchesExact: with the edge checks agreeing, the greedy
// bypass must pick identical waypoints.
func TestFastShortcutMatchesExact(t *testing.T) {
	m := clutteredOctree(9)
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(8)
		path := make([]geom.Vec3, n)
		p := geom.V3((rng.Float64()-0.5)*60, (rng.Float64()-0.5)*60, 2+rng.Float64()*20)
		for i := range path {
			path[i] = p
			p = p.Add(geom.V3((rng.Float64()-0.5)*10, (rng.Float64()-0.5)*10, (rng.Float64()-0.5)*4))
		}
		a := Shortcut(m, append([]geom.Vec3(nil), path...), 0.3)
		b := fastShortcut(m, append([]geom.Vec3(nil), path...), 0.3)
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d waypoints", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d waypoint %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

// TestFastSegmentClearNoResolutionFallback: maps without a voxel
// resolution must take the exact walk.
func TestFastSegmentClearNoResolutionFallback(t *testing.T) {
	m := flatMap{} // Resolution() == 0
	a, b := geom.V3(0, 0, 5), geom.V3(10, 0, 5)
	if fastSegmentClear(m, a, b, 0.3) != SegmentClear(m, a, b, 0.3) {
		t.Fatal("fallback diverged from exact walk")
	}
}

type flatMap struct{}

func (flatMap) State(geom.Vec3) mapping.VoxelState         { return mapping.Unknown }
func (flatMap) Blocked(p geom.Vec3) bool                   { return p.X > 5 }
func (flatMap) InsertCloud(geom.Vec3, []geom.Vec3, []bool) {}
func (flatMap) Resolution() float64                        { return 0 }
func (flatMap) MemoryBytes() int                           { return 0 }

// TestRRTStarFastFindsPaths: the fast planner must still solve the slab
// scenarios the exact planner solves (same seeds, same worlds).
func TestRRTStarFastFindsPaths(t *testing.T) {
	m := clutteredOctree(5)
	start, goal := geom.V3(-30, -30, 6), geom.V3(30, 30, 6)
	for seed := int64(0); seed < 5; seed++ {
		exact := NewRRTStar(DefaultRRTStarConfig(), seed)
		fast := NewRRTStar(DefaultRRTStarConfig(), seed)
		fast.Fast = true
		_, errE := exact.Plan(start, goal, m)
		path, errF := fast.Plan(start, goal, m)
		if (errE == nil) != (errF == nil) {
			t.Fatalf("seed %d: exact err=%v fast err=%v", seed, errE, errF)
		}
		if errF == nil {
			if !PathClear(m, path, 0.3) {
				t.Fatalf("seed %d: fast path not collision-free", seed)
			}
		}
	}
}
