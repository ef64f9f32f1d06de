package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestVoxelIndexNegative(t *testing.T) {
	if got := voxelIndex(-0.1, 0.5); got != -1 {
		t.Errorf("voxelIndex(-0.1) = %d, want -1", got)
	}
	if got := voxelIndex(0.1, 0.5); got != 0 {
		t.Errorf("voxelIndex(0.1) = %d, want 0", got)
	}
	if got := voxelIndex(-0.5, 0.5); got != -2 {
		// -0.5/0.5 = -1 exactly; int(-1)-1 = -2. Boundary goes down.
		t.Errorf("voxelIndex(-0.5) = %d", got)
	}
}

func TestPackKeyRoundTrip(t *testing.T) {
	cases := [][3]int{{0, 0, 0}, {1, 2, 3}, {-1, -2, -3}, {1000, -1000, 500}}
	for _, c := range cases {
		k := packKey(c[0], c[1], c[2])
		p := keyCenter(k, 0.5)
		wx := (float64(c[0]) + 0.5) * 0.5
		wy := (float64(c[1]) + 0.5) * 0.5
		wz := (float64(c[2]) + 0.5) * 0.5
		if !p.ApproxEq(geom.V3(wx, wy, wz), 1e-9) {
			t.Errorf("keyCenter(%v) = %v", c, p)
		}
	}
}

func TestPackKeyUnique(t *testing.T) {
	seen := map[voxelKey][3]int{}
	for x := -5; x <= 5; x++ {
		for y := -5; y <= 5; y++ {
			for z := -5; z <= 5; z++ {
				k := packKey(x, y, z)
				if prev, dup := seen[k]; dup {
					t.Fatalf("collision: %v and %v", prev, [3]int{x, y, z})
				}
				seen[k] = [3]int{x, y, z}
			}
		}
	}
}

func TestWalkRayVisitsLine(t *testing.T) {
	var visited [][3]int
	walkRay(geom.V3(0.25, 0.25, 0.25), geom.V3(2.25, 0.25, 0.25), 0.5,
		func(ix, iy, iz int) bool {
			visited = append(visited, [3]int{ix, iy, iz})
			return true
		})
	// Cells 0..3 along x visited (end cell 4 excluded).
	if len(visited) != 4 {
		t.Fatalf("visited %d cells: %v", len(visited), visited)
	}
	for i, v := range visited {
		if v != [3]int{i, 0, 0} {
			t.Errorf("cell %d = %v", i, v)
		}
	}
}

func TestWalkRayDiagonalConnected(t *testing.T) {
	var cells [][3]int
	a := geom.V3(0.1, 0.1, 0.1)
	b := geom.V3(3.4, 2.2, 1.7)
	ex, ey, ez := walkRay(a, b, 0.5, func(ix, iy, iz int) bool {
		cells = append(cells, [3]int{ix, iy, iz})
		return true
	})
	wantEnd := [3]int{voxelIndex(b.X, 0.5), voxelIndex(b.Y, 0.5), voxelIndex(b.Z, 0.5)}
	if [3]int{ex, ey, ez} != wantEnd {
		t.Errorf("end = %v, want %v", [3]int{ex, ey, ez}, wantEnd)
	}
	// Consecutive visited cells differ by exactly one axis step.
	for i := 1; i < len(cells); i++ {
		diff := 0
		for a := 0; a < 3; a++ {
			d := cells[i][a] - cells[i-1][a]
			if d < -1 || d > 1 {
				t.Fatalf("jump at %d: %v -> %v", i, cells[i-1], cells[i])
			}
			if d != 0 {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("non-unit step at %d: %v -> %v", i, cells[i-1], cells[i])
		}
	}
}

func TestWalkRayZeroLength(t *testing.T) {
	called := false
	ex, ey, ez := walkRay(geom.V3(1, 1, 1), geom.V3(1, 1, 1), 0.5, func(_, _, _ int) bool {
		called = true
		return true
	})
	if called {
		t.Error("zero ray should not visit")
	}
	if ex != 2 || ey != 2 || ez != 2 {
		t.Errorf("end voxel (%d,%d,%d)", ex, ey, ez)
	}
}

func TestNullMap(t *testing.T) {
	var m NullMap
	m.InsertCloud(geom.V3(0, 0, 5), []geom.Vec3{geom.V3(1, 0, 0)}, []bool{true})
	if m.State(geom.V3(1, 0, 0)) != Unknown {
		t.Error("null map should stay unknown")
	}
	if m.Blocked(geom.V3(1, 0, 0)) {
		t.Error("null map should never block")
	}
	if m.MemoryBytes() != 0 {
		t.Error("null map accounting")
	}
}

func insertWall(m fusionMap, x float64) {
	// Observe a wall at x from origin rays at z=2.
	for y := -3.0; y <= 3.0; y += 0.25 {
		for z := 0.25; z <= 4; z += 0.25 {
			m.InsertRay(geom.V3(0, y, 2), geom.V3(x, y, z), true)
		}
	}
}

func TestDenseGridWall(t *testing.T) {
	g := NewDenseGrid(geom.NewAABB(geom.V3(-10, -10, 0), geom.V3(20, 10, 10)), 0.5, 1.0)
	insertWall(g, 8)
	if g.State(geom.V3(8.1, 0.1, 2.1)) != Occupied {
		t.Error("wall voxel not occupied")
	}
	if g.State(geom.V3(4, 0.1, 2.1)) != Free {
		t.Error("pass-through voxel not free")
	}
	if g.State(geom.V3(-5, -5, 5)) != Unknown {
		t.Error("unobserved voxel not unknown")
	}
	// Inflation: a point 0.8m in front of the wall is blocked at r=1.
	if !g.Blocked(geom.V3(7.2, 0.1, 2.1)) {
		t.Error("inflated region not blocked")
	}
	if g.Blocked(geom.V3(5, 0.1, 2.1)) {
		t.Error("far free space blocked")
	}
	if g.OccupiedVoxels() == 0 {
		t.Error("no occupied voxels counted")
	}
}

func TestDenseGridOutOfBounds(t *testing.T) {
	g := NewDenseGrid(geom.NewAABB(geom.V3(0, 0, 0), geom.V3(5, 5, 5)), 0.5, 0.5)
	if g.State(geom.V3(100, 0, 0)) != Unknown {
		t.Error("oob state")
	}
	if g.Blocked(geom.V3(100, 0, 0)) {
		t.Error("oob blocked")
	}
	// Rays crossing the boundary must not panic.
	g.InsertRay(geom.V3(-5, 2, 2), geom.V3(10, 2, 2), true)
}

func TestLocalGridForgetsOutsideWindow(t *testing.T) {
	g := NewLocalGrid(geom.V3(20, 20, 10), 0.5, 1.0)
	g.Recenter(geom.V3(0, 0, 5))
	g.InsertRay(geom.V3(0, 0, 5), geom.V3(5, 0, 5), true)
	if g.State(geom.V3(5.1, 0.1, 5.1)) != Occupied {
		t.Fatal("obstacle not recorded")
	}
	if !g.Blocked(geom.V3(4.4, 0.1, 5.1)) {
		t.Error("inflated obstacle not blocked")
	}
	// Move far away: the obstacle leaves the window and is forgotten —
	// the EGO-Planner failure mode of paper §II-B.
	g.Recenter(geom.V3(100, 0, 5))
	if g.State(geom.V3(5.1, 0.1, 5.1)) != Unknown {
		t.Error("left-behind obstacle should be unknown")
	}
	if g.Blocked(geom.V3(4.6, 0.1, 5.1)) {
		t.Error("forgotten obstacle still blocks")
	}
	if g.OccupiedVoxels() != 0 {
		t.Errorf("occupied count = %d after eviction", g.OccupiedVoxels())
	}
}

func TestLocalGridStaleSlotInvalidation(t *testing.T) {
	g := NewLocalGrid(geom.V3(8, 8, 8), 0.5, 0.5)
	g.Recenter(geom.V3(0, 0, 0))
	g.InsertRay(geom.V3(0, 0, 0), geom.V3(2, 0, 0), true)
	if g.State(geom.V3(2.1, 0.1, 0.1)) != Occupied {
		t.Fatal("setup failed")
	}
	// A distant voxel that hashes to the same ring slot must read Unknown,
	// not leak the old cell's state.
	g.Recenter(geom.V3(100, 0, 0))
	nx := 17 // window 8m / 0.5m + 1
	p := geom.V3(2.1+float64(nx)*0.5*6, 0.1, 0.1)
	_ = p
	if st := g.State(geom.V3(102.1, 0.1, 0.1)); st != Unknown {
		t.Errorf("stale slot leaked state %v", st)
	}
}

func TestOctreeWall(t *testing.T) {
	o := NewOctree(geom.V3(0, 0, 0), 64, 0.5, 1.0)
	insertWall(o, 8)
	if o.State(geom.V3(8.1, 0.1, 2.1)) != Occupied {
		t.Error("wall voxel not occupied")
	}
	if o.State(geom.V3(4, 0.1, 2.1)) != Free {
		t.Error("pass-through voxel not free")
	}
	if o.State(geom.V3(-20, -20, 5)) != Unknown {
		t.Error("unobserved voxel not unknown")
	}
	if !o.Blocked(geom.V3(7.2, 0.1, 2.1)) {
		t.Error("inflated region not blocked")
	}
	if o.Blocked(geom.V3(4, 0.1, 2.1)) {
		t.Error("free space blocked")
	}
}

func TestOctreePersistsGlobally(t *testing.T) {
	// Unlike LocalGrid, the octree remembers obstacles wherever the
	// vehicle goes — the property MLS-V3 relies on.
	o := NewOctree(geom.V3(0, 0, 0), 256, 0.5, 1.0)
	o.InsertRay(geom.V3(0, 0, 5), geom.V3(5, 0, 5), true)
	// "Fly" far away; no recenter concept, map unchanged.
	if o.State(geom.V3(5.1, 0.1, 5.1)) != Occupied {
		t.Error("octree forgot an obstacle")
	}
}

func TestOctreeProbabilisticDecay(t *testing.T) {
	o := NewOctree(geom.V3(0, 0, 0), 32, 0.5, 0.5)
	p := geom.V3(3.1, 0.1, 2.1)
	// One hit marks it occupied.
	o.InsertRay(geom.V3(0, 0, 2), p, true)
	if o.State(p) != Occupied {
		t.Fatal("hit did not occupy")
	}
	// Repeated pass-throughs (sensor noise correction) free it again.
	for i := 0; i < 10; i++ {
		o.InsertRay(geom.V3(0, 0, 2), geom.V3(6, 0.1, 2.1), true)
	}
	if o.State(p) != Free {
		t.Errorf("state after misses = %v, want Free", o.State(p))
	}
	if o.Blocked(p.Add(geom.V3(0.2, 0, 0))) {
		t.Error("inflation not released after de-occupation")
	}
}

func TestOctreeMatchesDenseGridOracle(t *testing.T) {
	bounds := geom.NewAABB(geom.V3(-16, -16, 0), geom.V3(16, 16, 16))
	g := NewDenseGrid(bounds, 0.5, 0.5)
	o := NewOctree(geom.V3(0, 0, 8), 32, 0.5, 0.5)
	rng := rand.New(rand.NewSource(17))
	origin := geom.V3(0, 0, 8)
	var hits []geom.Vec3
	for i := 0; i < 300; i++ {
		end := geom.V3(
			(rng.Float64()-0.5)*24,
			(rng.Float64()-0.5)*24,
			rng.Float64()*12+0.5,
		)
		hit := rng.Float64() < 0.7
		g.InsertRay(origin, end, hit)
		o.InsertRay(origin, end, hit)
		if hit {
			hits = append(hits, end)
		}
	}
	// The dense grid latches Occupied (no decay); the octree applies
	// probabilistic decay when later rays pass through a cell. So the
	// sound cross-check is one-directional: wherever the octree still
	// says Occupied, the latching oracle must agree.
	occAgree, occTotal := 0, 0
	for _, p := range hits {
		gs, os := g.State(p), o.State(p)
		if os == Occupied {
			occTotal++
			if gs == Occupied {
				occAgree++
			} else {
				t.Errorf("octree occupied at %v but oracle says %v", p, gs)
			}
		}
	}
	if occTotal == 0 {
		t.Fatal("no occupied voxels to compare")
	}
}

func TestOctreeCompression(t *testing.T) {
	// A large uniformly-observed free region should prune aggressively:
	// the octree must use far fewer nodes than voxels observed.
	o := NewOctree(geom.V3(0, 0, 0), 32, 0.5, 0.5)
	origin := geom.V3(0, 0, 10)
	voxelsTouched := 0
	for x := -10.0; x <= 10; x += 0.5 {
		for y := -10.0; y <= 10; y += 0.5 {
			o.InsertRay(origin, geom.V3(x, y, 0.25), true)
			voxelsTouched += 20 // ~ray length in voxels
		}
	}
	if o.NodeCount() >= voxelsTouched {
		t.Errorf("octree nodes %d >= touched voxel updates %d — no compression",
			o.NodeCount(), voxelsTouched)
	}
	if o.MemoryBytes() <= 0 {
		t.Error("memory accounting")
	}
}

func TestOctreeMemorySmallerThanDenseOnSparse(t *testing.T) {
	// The paper's §III-B motivation: at equal resolution over a large,
	// mostly-empty region, the octree uses far less memory.
	bounds := geom.NewAABB(geom.V3(-96, -96, 0), geom.V3(96, 96, 48))
	g := NewDenseGrid(bounds, 0.5, 1.0)
	o := NewOctree(geom.V3(0, 0, 24), 96, 0.5, 1.0)
	// A handful of small obstacles.
	origin := geom.V3(0, 0, 10)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		end := geom.V3((rng.Float64()-0.5)*100, (rng.Float64()-0.5)*100, rng.Float64()*10)
		g.InsertRay(origin, end, true)
		o.InsertRay(origin, end, true)
	}
	if o.MemoryBytes() >= g.MemoryBytes()/4 {
		t.Errorf("octree %d B not ≪ dense %d B", o.MemoryBytes(), g.MemoryBytes())
	}
}

func TestOctreeOutsideBounds(t *testing.T) {
	o := NewOctree(geom.V3(0, 0, 0), 8, 0.5, 0.5)
	// Updates outside the cube are ignored, not panics.
	o.InsertRay(geom.V3(0, 0, 0), geom.V3(100, 0, 0), true)
	if o.State(geom.V3(100, 0, 0)) != Unknown {
		t.Error("outside state should be unknown")
	}
}

func TestInterfaceCompliance(t *testing.T) {
	maps := []Map{
		NullMap{},
		NewDenseGrid(geom.NewAABB(geom.V3(0, 0, 0), geom.V3(10, 10, 10)), 0.5, 1),
		NewLocalGrid(geom.V3(10, 10, 10), 0.5, 1),
		NewOctree(geom.V3(0, 0, 0), 16, 0.5, 1),
	}
	for _, m := range maps {
		if m.Resolution() <= 0 {
			t.Errorf("%T resolution", m)
		}
		m.InsertCloud(geom.V3(1, 1, 1), []geom.Vec3{geom.V3(2, 2, 2)}, []bool{true})
		_ = m.State(geom.V3(2, 2, 2))
		_ = m.Blocked(geom.V3(2, 2, 2))
		_ = m.MemoryBytes()
	}
}
