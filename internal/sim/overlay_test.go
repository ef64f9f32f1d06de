package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randomOverlays builds a gridded overlay and its linear oracle from the
// same randomized drone placement: identical sphere sets, one with the
// uniform grid and one scanning the list (DropGrid).
func randomOverlays(rng *rand.Rand, n int) (grid, linear *Overlay) {
	grid, linear = NewOverlay(), NewOverlay()
	linear.DropGrid()
	for i := 0; i < n; i++ {
		c := geom.V3((rng.Float64()-0.5)*80, (rng.Float64()-0.5)*80, rng.Float64()*30)
		r := 0.2 + rng.Float64()*0.5
		grid.Add(int32(i), c, r)
		linear.Add(int32(i), c, r)
	}
	grid.Rebuild()
	linear.Rebuild()
	return grid, linear
}

// TestOverlayQueriesMatchLinear proves every gridded overlay query is
// bit-identical to the linear-scan reference over randomized drone
// placements, rebuild after rebuild — the overlay mirror of
// TestIndexQueriesMatchLinear.
func TestOverlayQueriesMatchLinear(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		grid, linear := NewOverlay(), NewOverlay()
		linear.DropGrid()
		for tick := 0; tick < 20; tick++ {
			// Rebuild from scratch each tick, like the lockstep loop.
			grid.Reset()
			linear.Reset()
			n := 1 + rng.Intn(12)
			for i := 0; i < n; i++ {
				c := geom.V3((rng.Float64()-0.5)*80, (rng.Float64()-0.5)*80, rng.Float64()*30)
				r := 0.2 + rng.Float64()*0.5
				grid.Add(int32(i), c, r)
				linear.Add(int32(i), c, r)
			}
			grid.Rebuild()
			linear.Rebuild()
			if grid.Len() != n || linear.Len() != n {
				t.Fatalf("seed %d tick %d: Len = %d/%d, want %d", seed, tick, grid.Len(), linear.Len(), n)
			}

			for q := 0; q < 200; q++ {
				p := geom.V3((rng.Float64()-0.5)*120, (rng.Float64()-0.5)*120, rng.Float64()*40)
				excl := int32(rng.Intn(n + 2)) // sometimes excludes nothing
				dir := geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
				if dir.Len() < 1e-9 {
					continue
				}
				ray := geom.Ray{Origin: p, Dir: dir.Norm()}
				tmax := 5 + rng.Float64()*60
				ta, ha := grid.Raycast(ray, tmax, excl)
				tb, hb := linear.Raycast(ray, tmax, excl)
				if ha != hb || ta != tb {
					t.Fatalf("seed %d tick %d: Raycast(%v) = (%v,%v) grid vs (%v,%v) linear",
						seed, tick, ray, ta, ha, tb, hb)
				}
				// Vertical rays are the lidar path; exercise them explicitly.
				down := geom.Ray{Origin: p, Dir: geom.V3(0, 0, -1)}
				ta, ha = grid.Raycast(down, tmax, excl)
				tb, hb = linear.Raycast(down, tmax, excl)
				if ha != hb || ta != tb {
					t.Fatalf("seed %d tick %d: vertical Raycast mismatch: (%v,%v) vs (%v,%v)",
						seed, tick, ta, ha, tb, hb)
				}
			}
		}
	}
}

// TestOverlaySelfExclusion: a drone never senses its own sphere, with and
// without the grid.
func TestOverlaySelfExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	grid, linear := randomOverlays(rng, 1)
	for _, ov := range []*Overlay{grid, linear} {
		s := ov.spheres[0]
		ray := geom.Ray{Origin: s.Center.Add(geom.V3(0, 0, 10)), Dir: geom.V3(0, 0, -1)}
		if _, hit := ov.Raycast(ray, 50, s.ID); hit {
			t.Fatal("overlay Raycast struck the excluded (self) sphere")
		}
		if _, hit := ov.Raycast(ray, 50, s.ID+1); !hit {
			t.Fatal("overlay Raycast missed a non-excluded sphere dead ahead")
		}
	}
}

// TestOverlayEmptyCaptureBitIdentical pins the RNG-order contract: a
// sensor wired to an empty (or never-hit) overlay must produce captures
// bit-identical to the same sensor with no overlay at all — the overlay
// fold happens after the world raycast and never consumes RNG, so a
// solo-equivalent fleet member draws the exact solo noise stream.
func TestOverlayEmptyCaptureBitIdentical(t *testing.T) {
	w := randomWorld(5)
	w.BuildIndex()

	plain := NewDepthCamera(77)
	wired := NewDepthCamera(77)
	empty := NewOverlay()
	empty.Rebuild()
	wired.SetOverlay(empty, 0)

	// A populated overlay whose spheres are far outside every ray's reach
	// must be just as invisible.
	far := NewOverlay()
	far.Add(1, geom.V3(500, 500, 5), 0.4)
	far.Rebuild()
	farCam := NewDepthCamera(77)
	farCam.SetOverlay(far, 0)

	lidarPlain := NewLidarAlt(33)
	lidarWired := NewLidarAlt(33)
	lidarWired.SetOverlay(empty, 0)

	rng := rand.New(rand.NewSource(9))
	for frame := 0; frame < 40; frame++ {
		pos := geom.V3((rng.Float64()-0.5)*120, (rng.Float64()-0.5)*120, 2+rng.Float64()*25)
		yaw := rng.Float64() * 2 * math.Pi
		a := plain.Capture(w, pos, yaw)
		b := wired.Capture(w, pos, yaw)
		c := farCam.Capture(w, pos, yaw)
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("frame %d: return counts diverge: %d/%d/%d", frame, len(a), len(b), len(c))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frame %d return %d: empty overlay perturbed capture: %+v vs %+v", frame, i, a[i], b[i])
			}
			if a[i] != c[i] {
				t.Fatalf("frame %d return %d: out-of-reach overlay perturbed capture: %+v vs %+v", frame, i, a[i], c[i])
			}
		}
		ra, oka := lidarPlain.Read(w, pos)
		rb, okb := lidarWired.Read(w, pos)
		if oka != okb || ra != rb {
			t.Fatalf("frame %d: empty overlay perturbed lidar: (%v,%v) vs (%v,%v)", frame, ra, oka, rb, okb)
		}
	}
}

// TestOverlayTruncatesSensors: a drone hovering between the sensor and
// the world surface shortens the lidar reading and the depth returns —
// the inter-drone sensing the fleet world is built on.
func TestOverlayTruncatesSensors(t *testing.T) {
	w := randomWorld(8)
	w.BuildIndex()
	pos := geom.V3(0, 0, 20)

	// Lidar: a wingman 5 m below must produce a ~4.6 m return where the
	// ground alone is out of the altimeter's range (and shorter than any
	// ground return the solo read could have produced).
	solo := NewLidarAlt(1)
	fleet := NewLidarAlt(1)
	ov := NewOverlay()
	ov.Add(1, geom.V3(0, 0, 15), 0.4)
	ov.Rebuild()
	fleet.SetOverlay(ov, 0)
	rSolo, okSolo := solo.Read(w, pos)
	rFleet, ok := fleet.Read(w, pos)
	if !ok {
		t.Fatal("lidar lost the return entirely")
	}
	if okSolo && rFleet >= rSolo {
		t.Fatalf("wingman below did not truncate lidar: %v >= %v", rFleet, rSolo)
	}
	if want := 5.0 - 0.4; math.Abs(rFleet-want) > 0.5 {
		t.Fatalf("lidar range %v, want about %v (sphere top plus noise)", rFleet, want)
	}

	// Depth: a wingman dead ahead must pull at least one return closer.
	soloCam := NewDepthCamera(2)
	fleetCam := NewDepthCamera(2)
	dov := NewOverlay()
	yaw := 0.0
	dov.Add(1, geom.V3(4, 0, 20), 0.5) // straight ahead at +X
	dov.Rebuild()
	fleetCam.SetOverlay(dov, 0)
	a := soloCam.Capture(w, pos, yaw)
	b := fleetCam.Capture(w, pos, yaw)
	closer := false
	for i := range b {
		if b[i].Hit && (!a[i].Hit || b[i].Point.Dist(pos) < a[i].Point.Dist(pos)) {
			closer = true
			break
		}
	}
	if !closer {
		t.Fatal("depth capture did not register the wingman ahead")
	}
}

// TestOverlayRebuildAllocFree asserts the steady-state lockstep cycle —
// Reset, Add, Rebuild, query — stays allocation-free once warm, so fleet
// ticking adds no per-tick garbage.
func TestOverlayRebuildAllocFree(t *testing.T) {
	ov := NewOverlay()
	centers := []geom.Vec3{{X: 0, Y: 0, Z: 10}, {X: 8, Y: 3, Z: 12}, {X: -5, Y: 6, Z: 9}}
	cycle := func() {
		ov.Reset()
		for i, c := range centers {
			ov.Add(int32(i), c, 0.35)
		}
		ov.Rebuild()
		ov.Raycast(geom.Ray{Origin: geom.V3(0, 0, 30), Dir: geom.V3(0, 0, -1)}, 40, 0)
	}
	cycle() // warm the storage
	if n := testing.AllocsPerRun(100, cycle); n > 0 {
		t.Errorf("overlay lockstep cycle allocates %.1f/op in steady state, want 0", n)
	}
}
