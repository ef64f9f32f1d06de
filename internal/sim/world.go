// Package sim is the AirSim-equivalent simulation substrate (see DESIGN.md
// substitution table): procedural 3-D worlds, quadrotor dynamics, weather,
// and the sensor suite of the paper's platform — GPS with drift, IMU,
// barometer, downward lidar altimeter, forward depth camera, and the
// downward color camera that feeds marker detection.
//
// The simulator exposes ground truth only to the scenario harness; the
// landing system under test sees sensor outputs exclusively.
package sim

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/vision"
)

// World is the static environment of one scenario.
//
// A World is immutable once generation finishes: scenario runs, sensors
// and the renderer only read it, which is what allows the worldgen cache
// to share one World across concurrent campaign workers. Code that does
// mutate the obstacle lists (world generation, bespoke test setups) must
// do so before BuildIndex and never after the world has been shared.
type World struct {
	// Bounds is the legal flight volume.
	Bounds geom.AABB
	// Buildings are solid axis-aligned structures.
	Buildings []geom.AABB
	// Trees are vertical cylinders with soft canopies (the depth sensor
	// sees them late; see DepthCamera).
	Trees []geom.Cylinder
	// Water marks ground rectangles that are unsafe to land on.
	Water []geom.AABB
	// Markers on the ground: index 0 is the landing target, the rest are
	// the false-positive decoys the SIL scenarios place near it.
	Markers []vision.MarkerInstance
	// GroundSeed drives the terrain texture.
	GroundSeed int64
	// GroundBase and GroundContrast parameterize terrain albedo.
	GroundBase, GroundContrast float64

	// index accelerates the obstacle queries below; nil means every query
	// runs its linear-scan reference path (see index.go).
	index *spatialIndex
}

// TargetMarker returns the landing target instance. ok is false when the
// world has no markers (mis-specified scenario).
func (w *World) TargetMarker() (vision.MarkerInstance, bool) {
	if len(w.Markers) == 0 {
		return vision.MarkerInstance{}, false
	}
	return w.Markers[0], true
}

// CollideSphere reports whether a sphere (the vehicle body) at c with
// radius r intersects any building, tree trunk, or the ground.
func (w *World) CollideSphere(c geom.Vec3, r float64) bool {
	if c.Z-r < 0 {
		return true
	}
	return w.HitObstacle(c, r)
}

// HitObstacle is CollideSphere minus the ground plane (the landing logic
// handles ground contact separately). It is the per-physics-tick collision
// check of the scenario runner.
func (w *World) HitObstacle(c geom.Vec3, r float64) bool {
	if ix := w.index; ix != nil {
		cx0, cy0, cx1, cy1, ok := ix.cellRange(c.X-r, c.Y-r, c.X+r, c.Y+r)
		if !ok {
			return false
		}
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				cell := &ix.cells[cy*ix.nx+cx]
				for _, bi := range cell.buildings {
					if w.Buildings[bi].IntersectsSphere(c, r) {
						return true
					}
				}
				for _, ti := range cell.trees {
					if w.Trees[ti].Dist(c) <= r {
						return true
					}
				}
			}
		}
		return false
	}
	for i := range w.Buildings {
		if w.Buildings[i].IntersectsSphere(c, r) {
			return true
		}
	}
	for i := range w.Trees {
		if w.Trees[i].Dist(c) <= r {
			return true
		}
	}
	return false
}

// Raycast returns the first obstacle or ground intersection along the ray
// within tmax. hit is false if nothing is struck.
func (w *World) Raycast(ray geom.Ray, tmax float64) (t float64, hit bool) {
	best := math.Inf(1)
	// Ground plane z=0.
	if ray.Dir.Z < -1e-12 {
		tg := -ray.Origin.Z / ray.Dir.Z
		if tg >= 0 && tg <= tmax {
			best = tg
		}
	}
	if ix := w.index; ix != nil {
		best = ix.raycastObstacles(w, ray, tmax, best)
	} else {
		for i := range w.Buildings {
			if tb, ok := ray.IntersectAABB(w.Buildings[i], tmax); ok && tb < best {
				best = tb
			}
		}
		for i := range w.Trees {
			if tt, ok := w.Trees[i].IntersectRay(ray, tmax); ok && tt < best {
				best = tt
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// GroundHeightAt returns the height of the surface under (x, y): rooftop
// or canopy height when a structure stands there, else 0. It backs the
// lidar altimeter (per tick) and the renderer's occluder test (per pixel),
// so it routes through the spatial index when one is built.
func (w *World) GroundHeightAt(x, y float64) float64 {
	if ix := w.index; ix != nil {
		h := 0.0
		cell := ix.cellAt(x, y)
		if cell == nil {
			return 0
		}
		for _, bi := range cell.buildings {
			b := &w.Buildings[bi]
			if x >= b.Min.X && x <= b.Max.X && y >= b.Min.Y && y <= b.Max.Y && b.Max.Z > h {
				h = b.Max.Z
			}
		}
		for _, ti := range cell.trees {
			tr := &w.Trees[ti]
			dx, dy := x-tr.Center.X, y-tr.Center.Y
			if dx*dx+dy*dy <= tr.Radius*tr.Radius && tr.TopZ > h {
				h = tr.TopZ
			}
		}
		return h
	}
	h := 0.0
	for i := range w.Buildings {
		b := w.Buildings[i]
		if x >= b.Min.X && x <= b.Max.X && y >= b.Min.Y && y <= b.Max.Y && b.Max.Z > h {
			h = b.Max.Z
		}
	}
	for i := range w.Trees {
		tr := w.Trees[i]
		dx, dy := x-tr.Center.X, y-tr.Center.Y
		if dx*dx+dy*dy <= tr.Radius*tr.Radius && tr.TopZ > h {
			h = tr.TopZ
		}
	}
	return h
}

// OnWater reports whether the ground position lies on a water region.
// Water lists hold at most a handful of rectangles, so this stays linear.
func (w *World) OnWater(x, y float64) bool {
	for i := range w.Water {
		wa := w.Water[i]
		if x >= wa.Min.X && x <= wa.Max.X && y >= wa.Min.Y && y <= wa.Max.Y {
			return true
		}
	}
	return false
}

// OccluderAt reports whether the vertical ray from the camera down to
// ground position (x, y) is blocked, and by what albedo at what height —
// the renderer's per-pixel occluder query (rooftops, canopies, water).
func (w *World) OccluderAt(x, y float64) (albedo, top float64, blocked bool) {
	h := w.GroundHeightAt(x, y)
	if h <= 0 {
		if w.OnWater(x, y) {
			// Water renders dark and flat.
			return 0.18, 0, true
		}
		return 0, 0, false
	}
	// Rooftops are mid-gray; canopies darker. The result only depends on
	// whether ANY canopy reaches the surface height, so candidate order is
	// irrelevant and the indexed path is exact.
	alb := 0.30
	if ix := w.index; ix != nil {
		if cell := ix.cellAt(x, y); cell != nil {
			for _, ti := range cell.trees {
				tr := &w.Trees[ti]
				dx, dy := x-tr.Center.X, y-tr.Center.Y
				if dx*dx+dy*dy <= tr.Radius*tr.Radius && tr.TopZ >= h-1e-9 {
					alb = 0.15
					break
				}
			}
		}
		return alb, h, true
	}
	for i := range w.Trees {
		tr := w.Trees[i]
		dx, dy := x-tr.Center.X, y-tr.Center.Y
		if dx*dx+dy*dy <= tr.Radius*tr.Radius && tr.TopZ >= h-1e-9 {
			alb = 0.15
			break
		}
	}
	return alb, h, true
}

// OccluderFreeRect reports that no occluder — building footprint, tree
// footprint or water rectangle — overlaps the axis-aligned ground rectangle
// [x0,x1]x[y0,y1]. A true result proves OccluderAt returns blocked=false at
// every point inside the rectangle, which lets the renderer drop the
// per-pixel occluder query for a whole pixel tile. False is conservative
// (tree footprints are tested by bounding box): the rectangle may still be
// clear, and the caller falls back to the exact per-pixel path.
func (w *World) OccluderFreeRect(x0, y0, x1, y1 float64) bool {
	for i := range w.Water {
		wa := &w.Water[i]
		if x0 <= wa.Max.X && x1 >= wa.Min.X && y0 <= wa.Max.Y && y1 >= wa.Min.Y {
			return false
		}
	}
	if ix := w.index; ix != nil {
		cx0, cy0, cx1, cy1, ok := ix.cellRange(x0, y0, x1, y1)
		if !ok {
			return true
		}
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				cell := &ix.cells[cy*ix.nx+cx]
				for _, bi := range cell.buildings {
					b := &w.Buildings[bi]
					if x0 <= b.Max.X && x1 >= b.Min.X && y0 <= b.Max.Y && y1 >= b.Min.Y {
						return false
					}
				}
				for _, ti := range cell.trees {
					tr := &w.Trees[ti]
					if x0 <= tr.Center.X+tr.Radius && x1 >= tr.Center.X-tr.Radius &&
						y0 <= tr.Center.Y+tr.Radius && y1 >= tr.Center.Y-tr.Radius {
						return false
					}
				}
			}
		}
		return true
	}
	for i := range w.Buildings {
		b := &w.Buildings[i]
		if x0 <= b.Max.X && x1 >= b.Min.X && y0 <= b.Max.Y && y1 >= b.Min.Y {
			return false
		}
	}
	for i := range w.Trees {
		tr := &w.Trees[i]
		if x0 <= tr.Center.X+tr.Radius && x1 >= tr.Center.X-tr.Radius &&
			y0 <= tr.Center.Y+tr.Radius && y1 >= tr.Center.Y-tr.Radius {
			return false
		}
	}
	return true
}

// Scene builds the downward-camera scene for rendering.
func (w *World) Scene() *vision.Scene {
	return &vision.Scene{
		Ground: vision.GroundTexture{
			Seed:     w.GroundSeed,
			Base:     w.GroundBase,
			Contrast: w.GroundContrast,
		},
		Markers:      w.Markers,
		OccluderAt:   w.OccluderAt,
		OccluderFree: w.OccluderFreeRect,
	}
}

// SceneNear returns a Scene restricted to markers, structures and water
// within radius of the ground point under center — the camera footprint.
// Rendering cost then scales with local clutter, not world size.
func (w *World) SceneNear(center geom.Vec3, radius float64) *vision.Scene {
	sub := &World{}
	w.sceneNearInto(center, radius, sub)
	sub.BuildIndex()
	return sub.Scene()
}

// sceneNearInto filters the world down to the camera footprint, appending
// into sub's existing slices so a reused sub-world allocates nothing in
// steady state. The indexed path appends obstacles in grid-cell order,
// not original index order — safe because every query the renderer makes
// on the sub-world is order-independent (max/any-test/first-binary-match);
// do not feed the sub-world to order-sensitive consumers such as the
// depth camera's RNG-per-candidate soft raycast.
func (w *World) sceneNearInto(center geom.Vec3, radius float64, sub *World) {
	sub.Bounds = w.Bounds
	sub.GroundSeed = w.GroundSeed
	sub.GroundBase = w.GroundBase
	sub.GroundContrast = w.GroundContrast
	sub.Buildings = sub.Buildings[:0]
	sub.Trees = sub.Trees[:0]
	sub.Water = sub.Water[:0]
	sub.Markers = sub.Markers[:0]

	c2 := geom.V3(center.X, center.Y, 0)
	if ix := w.index; ix != nil {
		// Candidate cells covering the footprint disk; exact distance tests
		// below keep the filtered set identical to the linear scan.
		cx0, cy0, cx1, cy1, ok := ix.cellRange(center.X-radius, center.Y-radius,
			center.X+radius, center.Y+radius)
		if ok {
			for cy := cy0; cy <= cy1; cy++ {
				for cx := cx0; cx <= cx1; cx++ {
					cell := &ix.cells[cy*ix.nx+cx]
					for _, bi := range cell.buildings {
						if w.Buildings[bi].Dist(c2) <= radius && !slices.Contains(sub.Buildings, w.Buildings[bi]) {
							sub.Buildings = append(sub.Buildings, w.Buildings[bi])
						}
					}
					for _, ti := range cell.trees {
						if w.Trees[ti].Bounds().Dist(c2) <= radius && !slices.Contains(sub.Trees, w.Trees[ti]) {
							sub.Trees = append(sub.Trees, w.Trees[ti])
						}
					}
				}
			}
		}
	} else {
		for i := range w.Buildings {
			if w.Buildings[i].Dist(c2) <= radius {
				sub.Buildings = append(sub.Buildings, w.Buildings[i])
			}
		}
		for i := range w.Trees {
			if w.Trees[i].Bounds().Dist(c2) <= radius {
				sub.Trees = append(sub.Trees, w.Trees[i])
			}
		}
	}
	for i := range w.Water {
		if w.Water[i].Dist(c2) <= radius {
			sub.Water = append(sub.Water, w.Water[i])
		}
	}
	for i := range w.Markers {
		if w.Markers[i].Center.HorizDist(c2) <= radius+w.Markers[i].Size {
			sub.Markers = append(sub.Markers, w.Markers[i])
		}
	}
}

// FreeGroundPosition reports whether the point is inside bounds, not on
// water, and at least clearance meters away from every structure —
// used by scenario generation to place markers plausibly.
func (w *World) FreeGroundPosition(x, y, clearance float64) bool {
	p := geom.V3(x, y, 0)
	if !w.Bounds.Contains(p.WithZ(w.Bounds.Min.Z + 0.1)) {
		return false
	}
	if w.OnWater(x, y) {
		return false
	}
	if ix := w.index; ix != nil {
		cx0, cy0, cx1, cy1, ok := ix.cellRange(x-clearance, y-clearance, x+clearance, y+clearance)
		if !ok {
			return true
		}
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				cell := &ix.cells[cy*ix.nx+cx]
				for _, bi := range cell.buildings {
					if w.Buildings[bi].Dist(p) < clearance {
						return false
					}
				}
				for _, ti := range cell.trees {
					if w.Trees[ti].Dist(p) < clearance {
						return false
					}
				}
			}
		}
		return true
	}
	for i := range w.Buildings {
		if w.Buildings[i].Dist(p) < clearance {
			return false
		}
	}
	for i := range w.Trees {
		if w.Trees[i].Dist(p) < clearance {
			return false
		}
	}
	return true
}
