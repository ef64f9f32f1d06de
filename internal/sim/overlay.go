package sim

import (
	"math"

	"repro/internal/geom"
)

// Dynamic overlay
//
// Fleet worlds put several drones into one immutable World. The world's
// spatial index cannot hold them — it is built once and shared read-only
// across campaign workers — so the moving vehicles live in a separate
// per-run Overlay: a small set of dynamic spheres (one per airborne
// drone) rebuilt every lockstep tick from the start-of-tick positions.
//
// The Overlay mirrors the static index's design contract exactly:
//
//   - it is a uniform XY grid (the same gridGeom and rayWalk machinery as
//     index.go) over the sphere footprints, used by the ray query below;
//   - every gridded query is bit-identical to a linear scan over the
//     sphere list — DropGrid restores the linear reference paths, which
//     the equivalence tests use as the oracle;
//   - queries never consume RNG, so folding an overlay result into a
//     sensor reading after the world query completes leaves the sensor's
//     RNG stream untouched (see DepthCamera.Capture / LidarAlt.Read).
//
// An Overlay belongs to one fleet run and is rebuilt between ticks by the
// goroutine driving the lockstep loop; between rebuilds its queries only
// read, so members ticking on other goroutines may query it at once. It
// is never shared across runs or workers.

// DynamicSphere is one fleet vehicle registered in the overlay: its
// current center, body radius, and the fleet member ID used for
// self-exclusion (a drone must not sense or collide with itself).
type DynamicSphere struct {
	Center geom.Vec3
	Radius float64
	ID     int32
}

// Overlay is the dynamic obstacle layer of a fleet world.
type Overlay struct {
	gridGeom
	spheres []DynamicSphere
	cells   [][]int32 // per-cell sphere indices
	linear  bool      // grid disabled: queries scan the sphere list
}

// NewOverlay returns an empty overlay.
func NewOverlay() *Overlay { return &Overlay{} }

// DropGrid disables the uniform grid, restoring the linear-scan reference
// paths. The overlay equivalence tests use it as the oracle, exactly like
// World.DropIndex for the static index.
func (ov *Overlay) DropGrid() { ov.linear = true }

// Reset clears the sphere set for the next lockstep tick, keeping the
// backing storage so steady-state rebuilds are allocation-free.
func (ov *Overlay) Reset() { ov.spheres = ov.spheres[:0] }

// Len returns the number of registered spheres.
func (ov *Overlay) Len() int { return len(ov.spheres) }

// Add registers one vehicle sphere. Call Rebuild after the last Add of a
// tick; queries between Add and Rebuild see the previous tick's grid.
func (ov *Overlay) Add(id int32, center geom.Vec3, radius float64) {
	ov.spheres = append(ov.spheres, DynamicSphere{Center: center, Radius: radius, ID: id})
}

// Rebuild reconstructs the grid over the current sphere set, reusing cell
// storage. With the grid dropped it is a no-op (queries stay linear).
func (ov *Overlay) Rebuild() {
	if ov.linear || len(ov.spheres) == 0 {
		ov.nx, ov.ny = 0, 0
		return
	}

	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := range ov.spheres {
		s := &ov.spheres[i]
		minX = math.Min(minX, s.Center.X-s.Radius)
		minY = math.Min(minY, s.Center.Y-s.Radius)
		maxX = math.Max(maxX, s.Center.X+s.Radius)
		maxY = math.Max(maxY, s.Center.Y+s.Radius)
	}
	minX -= indexPad
	minY -= indexPad
	maxX += indexPad
	maxY += indexPad

	// Fleets are small (tens of spheres), so the grid stays coarse: a few
	// spheres per cell beats a long walk across many near-empty cells.
	extent := math.Max(maxX-minX, maxY-minY)
	cell := extent / 8
	if cell < 3 {
		cell = 3
	} else if cell > 15 {
		cell = 15
	}
	nx := int(math.Ceil((maxX - minX) / cell))
	ny := int(math.Ceil((maxY - minY) / cell))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}

	ov.minX, ov.minY = minX, minY
	ov.cell, ov.invCell = cell, 1/cell
	ov.nx, ov.ny = nx, ny
	if cap(ov.cells) < nx*ny {
		ov.cells = make([][]int32, nx*ny)
	} else {
		ov.cells = ov.cells[:nx*ny]
		for i := range ov.cells {
			ov.cells[i] = ov.cells[i][:0]
		}
	}
	for i := range ov.spheres {
		s := &ov.spheres[i]
		cx0, cy0 := ov.cellCoord(s.Center.X-s.Radius-indexPad, s.Center.Y-s.Radius-indexPad)
		cx1, cy1 := ov.cellCoord(s.Center.X+s.Radius+indexPad, s.Center.Y+s.Radius+indexPad)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				ov.cells[cy*ov.nx+cx] = append(ov.cells[cy*ov.nx+cx], int32(i))
			}
		}
	}
}

// Raycast returns the nearest intersection parameter of ray with any
// registered vehicle other than exclude, within tmax. hit is false when
// no vehicle is struck. Duplicates cannot change a minimum, and cells
// whose entry parameter exceeds the running best are skipped — the same
// pruning argument as the static index's raycastObstacles.
func (ov *Overlay) Raycast(ray geom.Ray, tmax float64, exclude int32) (t float64, hit bool) {
	if len(ov.spheres) == 0 {
		return 0, false
	}
	best := math.Inf(1)
	if ov.nx == 0 {
		for i := range ov.spheres {
			s := &ov.spheres[i]
			if s.ID == exclude {
				continue
			}
			if ts, ok := ray.IntersectSphere(s.Center, s.Radius, tmax); ok && ts < best {
				best = ts
			}
		}
	} else {
		wk, ok := ov.startWalk(ray, tmax)
		if ok {
			for {
				ci, tEntry, more := wk.next()
				if !more || tEntry > best {
					break
				}
				for _, si := range ov.cells[ci] {
					s := &ov.spheres[si]
					if s.ID == exclude {
						continue
					}
					if ts, ok := ray.IntersectSphere(s.Center, s.Radius, tmax); ok && ts < best {
						best = ts
					}
				}
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}
