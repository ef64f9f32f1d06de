// Package mapping provides the three occupancy-map generations the paper
// moves through (§III-B):
//
//   - DenseGrid: the initial "three-dimensional static grid array" — fast
//     but memory-hungry, granularity and footprint mutually exclusive.
//   - LocalGrid: the EGO-Planner-style sliding window that only retains
//     obstacle information near the vehicle; leaving voxels are forgotten,
//     which is the root of MLS-V2's "trapped in unseen obstacles" failures.
//   - Octree: the OctoMap-style probabilistic octree MLS-V3 adopts — global
//     persistence, log-odds sensor fusion, and hierarchical compression.
//
// All maps share the Map interface consumed by the planners, including a
// configured inflation radius so "blocked" queries reflect the vehicle's
// physical extent (paper Fig. 6).
package mapping

import "repro/internal/geom"

// VoxelState is the tri-state occupancy of one voxel.
type VoxelState uint8

// Voxel states. Unknown is the zero value: an unobserved cell.
const (
	Unknown VoxelState = iota
	Free
	Occupied
)

// Map is the occupancy interface the planners and the decision layer use.
type Map interface {
	// State returns the tri-state occupancy of the voxel containing p.
	State(p geom.Vec3) VoxelState
	// Blocked reports whether p lies within the configured inflation
	// radius of any occupied voxel. Planners must use this, not State,
	// for clearance decisions.
	Blocked(p geom.Vec3) bool
	// InsertRay integrates one depth return: the cells along the segment
	// from origin to end are observed free; the end cell is observed
	// occupied when hit is true (a surface return) and free otherwise
	// (a max-range miss).
	InsertRay(origin, end geom.Vec3, hit bool)
	// InsertCloud integrates one full depth capture, deduplicating voxel
	// updates across rays the way OctoMap integrates scans: every voxel
	// touched by the capture receives at most one miss and one hit update.
	InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool)
	// Resolution returns the voxel edge length in meters.
	Resolution() float64
	// InflationRadius returns the configured obstacle inflation radius.
	InflationRadius() float64
	// MemoryBytes estimates the current heap footprint of the map data.
	MemoryBytes() int
	// OccupiedVoxels returns the number of voxels currently occupied.
	OccupiedVoxels() int
}

// voxelKey packs quantized voxel coordinates into a single map key.
// 21 bits per axis supports ±1,048,575 voxels — kilometers of world at any
// practical resolution.
type voxelKey int64

const keyOffset = 1 << 20

func packKey(ix, iy, iz int) voxelKey {
	return voxelKey(int64(ix+keyOffset)<<42 | int64(iy+keyOffset)<<21 | int64(iz+keyOffset))
}

// voxelIndex quantizes a world coordinate to its voxel index at the given
// resolution.
func voxelIndex(c, res float64) int {
	if c >= 0 {
		return int(c / res)
	}
	return int(c/res) - 1
}

// voxelOf quantizes a point to its voxel indices.
func voxelOf(p geom.Vec3, res float64) (ix, iy, iz int) {
	return voxelIndex(p.X, res), voxelIndex(p.Y, res), voxelIndex(p.Z, res)
}

// voxelCenter returns the world-space center of a voxel.
func voxelCenter(ix, iy, iz int, res float64) geom.Vec3 {
	return geom.V3(
		(float64(ix)+0.5)*res,
		(float64(iy)+0.5)*res,
		(float64(iz)+0.5)*res,
	)
}

// NullMap is the no-mapping configuration of MLS-V1: nothing is ever
// occupied, so the straight-line planner flies blind, reproducing the
// first generation's collision profile.
type NullMap struct{}

// State implements Map: every voxel is Unknown.
func (NullMap) State(geom.Vec3) VoxelState { return Unknown }

// Blocked implements Map: nothing is ever blocked.
func (NullMap) Blocked(geom.Vec3) bool { return false }

// InsertRay implements Map as a no-op.
func (NullMap) InsertRay(_, _ geom.Vec3, _ bool) {}

// InsertCloud implements Map as a no-op.
func (NullMap) InsertCloud(_ geom.Vec3, _ []geom.Vec3, _ []bool) {}

// Resolution implements Map.
func (NullMap) Resolution() float64 { return 1 }

// InflationRadius implements Map.
func (NullMap) InflationRadius() float64 { return 0 }

// MemoryBytes implements Map.
func (NullMap) MemoryBytes() int { return 0 }

// OccupiedVoxels implements Map.
func (NullMap) OccupiedVoxels() int { return 0 }

var _ Map = NullMap{}

// dda is a 3-D Amanatides-Woo voxel traversal of the segment from a to b
// at a fixed resolution. Callers drive it as a plain loop, so the per-cell
// work stays in the caller's body instead of behind a callback:
//
//	var w dda
//	for w.init(a, b, res); w.more(); w.step() {
//		// visit (w.ix, w.iy, w.iz): every cell strictly before the final one
//	}
//	// (w.ex, w.ey, w.ez) is the final cell, the one containing b
type dda struct {
	ix, iy, iz                int
	ex, ey, ez                int
	sx, sy, sz                int
	tMaxX, tMaxY, tMaxZ       float64
	tDeltaX, tDeltaY, tDeltaZ float64
	n, maxSteps               int
}

// init starts the traversal at the cell containing a.
func (w *dda) init(a, b geom.Vec3, res float64) {
	w.ix, w.iy, w.iz = voxelOf(a, res)
	w.ex, w.ey, w.ez = voxelOf(b, res)
	w.n, w.maxSteps = 0, 0
	d := b.Sub(a)
	length := d.Len()
	if length == 0 {
		return
	}
	dir := d.Scale(1 / length)
	w.sx, w.tMaxX, w.tDeltaX = ddaAxis(a.X, dir.X, w.ix, res)
	w.sy, w.tMaxY, w.tDeltaY = ddaAxis(a.Y, dir.Y, w.iy, res)
	w.sz, w.tMaxZ, w.tDeltaZ = ddaAxis(a.Z, dir.Z, w.iz, res)
	// Hard cap guards against degenerate float behavior.
	w.maxSteps = int(length/res)*3 + 16
}

// ddaAxis returns one axis's step sign, the distance along the ray to its
// first cell boundary, and the distance between boundaries.
func ddaAxis(c, dirC float64, i int, res float64) (s int, tMax, tDelta float64) {
	switch {
	case dirC > 0:
		return 1, (float64(i+1)*res - c) / dirC, res / dirC
	case dirC < 0:
		return -1, (float64(i)*res - c) / dirC, res / -dirC
	}
	return 0, 1e18, 1e18
}

// more reports whether the current cell is one to visit.
func (w *dda) more() bool {
	return w.n < w.maxSteps && (w.ix != w.ex || w.iy != w.ey || w.iz != w.ez)
}

// step advances to the next cell along the ray.
func (w *dda) step() {
	w.n++
	switch {
	case w.tMaxX <= w.tMaxY && w.tMaxX <= w.tMaxZ:
		w.ix += w.sx
		w.tMaxX += w.tDeltaX
	case w.tMaxY <= w.tMaxZ:
		w.iy += w.sy
		w.tMaxY += w.tDeltaY
	default:
		w.iz += w.sz
		w.tMaxZ += w.tDeltaZ
	}
}

// cloudVoxel is one voxel a capture touched. p is the point its update
// uses: the first touch in ray order (the cell center for a pass-through,
// the endpoint for a return), replaced by the first hit endpoint when a
// surface return claims the voxel — occupied wins over free.
type cloudVoxel struct {
	key voxelKey
	p   geom.Vec3
	occ bool
}

// cloudScratch is the reusable per-capture dedup state shared by every
// InsertCloud: voxels in the order each was first touched, plus an
// open-addressing table from key to position in that list.
type cloudScratch struct {
	slots  []int32 // 1 + index into voxels; 0 is an empty slot
	voxels []cloudVoxel
}

// collect walks every ray once, recording each touched voxel once. Callers
// then apply a miss to every free voxel and, after all misses, a hit to
// every occupied one, both in first-touch order.
func (c *cloudScratch) collect(res float64, origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	if c.slots == nil {
		c.slots = make([]int32, 256)
	} else {
		clear(c.slots)
	}
	c.voxels = c.voxels[:0]
	var w dda
	for i, end := range ends {
		for w.init(origin, end, res); w.more(); w.step() {
			k := packKey(w.ix, w.iy, w.iz)
			if s := c.find(k); c.slots[s] == 0 {
				c.add(s, k, voxelCenter(w.ix, w.iy, w.iz, res))
			}
		}
		k := packKey(w.ex, w.ey, w.ez)
		s := c.find(k)
		v := int(c.slots[s]) - 1
		if v < 0 {
			v = c.add(s, k, end)
		}
		if i < len(hits) && hits[i] && !c.voxels[v].occ {
			c.voxels[v].p, c.voxels[v].occ = end, true
		}
	}
}

// find returns the slot holding k, or the empty slot where it belongs.
func (c *cloudScratch) find(k voxelKey) int {
	mask := len(c.slots) - 1
	s := hashSlot(int64(k), mask)
	for c.slots[s] != 0 && c.voxels[c.slots[s]-1].key != k {
		s = (s + 1) & mask
	}
	return s
}

// add appends a free voxel at the empty slot s and returns its index,
// growing the table at half load.
func (c *cloudScratch) add(s int, k voxelKey, p geom.Vec3) int {
	c.voxels = append(c.voxels, cloudVoxel{key: k, p: p})
	c.slots[s] = int32(len(c.voxels))
	if 2*len(c.voxels) <= len(c.slots) {
		return len(c.voxels) - 1
	}
	c.slots = make([]int32, 2*len(c.slots))
	for i, v := range c.voxels {
		c.slots[c.find(v.key)] = int32(i + 1)
	}
	return len(c.voxels) - 1
}
