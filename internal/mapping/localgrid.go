package mapping

import (
	"repro/internal/geom"
)

// LocalGrid is the EGO-Planner-style sliding-window occupancy map used by
// MLS-V2: a fixed-size voxel buffer centered on the vehicle. Voxels that
// drift outside the window are forgotten, so obstacles seen earlier can
// vanish from the planner's view — the mechanism behind the paper's
// "trapped within the foliage of a tree" failure (§II-B).
//
// Implementation: a hash-addressed ring buffer. Each slot stores the packed
// world voxel key it currently represents; a slot whose key does not match
// the query is Unknown. Re-centering therefore costs nothing, and stale
// data self-invalidates. Blocked queries hit a reference-counted inflation
// layer maintained incrementally, exactly like the octree's.
type LocalGrid struct {
	res    float64
	half   geom.Vec3 // window half-extents in meters
	center geom.Vec3

	nx, ny, nz int
	keys       []voxelKey
	states     []VoxelState
	occupied   voxelTable // occupied voxels inside the window
	inflated   inflationLayer
	evictBuf   []int64 // Recenter scratch
	scratch    cloudScratch
}

// NewLocalGrid builds a window of the given full extents (meters) at the
// given resolution and inflation radius.
func NewLocalGrid(extents geom.Vec3, res, inflation float64) *LocalGrid {
	if res <= 0 {
		res = 0.5
	}
	nx := int(extents.X/res) + 1
	ny := int(extents.Y/res) + 1
	nz := int(extents.Z/res) + 1
	return &LocalGrid{
		res:  res,
		half: extents.Scale(0.5),
		nx:   nx, ny: ny, nz: nz,
		keys:     make([]voxelKey, nx*ny*nz),
		states:   make([]VoxelState, nx*ny*nz),
		occupied: newVoxelTable(1024),
		inflated: newInflationLayer(res, inflation),
	}
}

// Recenter moves the window to follow the vehicle and evicts occupied
// voxels that fell outside it.
func (g *LocalGrid) Recenter(center geom.Vec3) {
	g.center = center
	lo := center.Sub(g.half)
	hi := center.Add(g.half)
	// Collect evictions first: the open-addressing table must not be
	// mutated mid-scan. Evictions commute, so scan order is irrelevant.
	g.evictBuf = g.evictBuf[:0]
	for _, kk := range g.occupied.keys {
		if kk == emptySlot {
			continue
		}
		p := keyCenter(voxelKey(kk), g.res)
		if p.X < lo.X || p.X > hi.X || p.Y < lo.Y || p.Y > hi.Y || p.Z < lo.Z || p.Z > hi.Z {
			g.evictBuf = append(g.evictBuf, kk)
		}
	}
	for _, kk := range g.evictBuf {
		g.occupied.del(kk)
		ix, iy, iz := keyIndices(voxelKey(kk))
		g.inflated.paint(ix, iy, iz, -1)
	}
}

// keyCenter reverses packKey to the voxel center point.
func keyCenter(k voxelKey, res float64) geom.Vec3 {
	iz := int(int64(k)&((1<<21)-1)) - keyOffset
	iy := int((int64(k)>>21)&((1<<21)-1)) - keyOffset
	ix := int((int64(k)>>42)&((1<<21)-1)) - keyOffset
	return voxelCenter(ix, iy, iz, res)
}

// keyIndices unpacks a voxel key.
func keyIndices(k voxelKey) (ix, iy, iz int) {
	iz = int(int64(k)&((1<<21)-1)) - keyOffset
	iy = int((int64(k)>>21)&((1<<21)-1)) - keyOffset
	ix = int((int64(k)>>42)&((1<<21)-1)) - keyOffset
	return ix, iy, iz
}

// inWindow reports whether p lies inside the current window.
func (g *LocalGrid) inWindow(p geom.Vec3) bool {
	d := p.Sub(g.center).Abs()
	return d.X <= g.half.X && d.Y <= g.half.Y && d.Z <= g.half.Z
}

// slot returns the ring-buffer slot for voxel indices.
func (g *LocalGrid) slot(ix, iy, iz int) int {
	mx := ix % g.nx
	if mx < 0 {
		mx += g.nx
	}
	my := iy % g.ny
	if my < 0 {
		my += g.ny
	}
	mz := iz % g.nz
	if mz < 0 {
		mz += g.nz
	}
	return (mz*g.ny+my)*g.nx + mx
}

// State implements Map.
func (g *LocalGrid) State(p geom.Vec3) VoxelState {
	if !g.inWindow(p) {
		return Unknown
	}
	ix, iy, iz := voxelOf(p, g.res)
	s := g.slot(ix, iy, iz)
	if g.keys[s] != packKey(ix, iy, iz) {
		return Unknown
	}
	return g.states[s]
}

// Blocked implements Map with a single brick probe.
func (g *LocalGrid) Blocked(p geom.Vec3) bool {
	return g.inflated.has(voxelOf(p, g.res))
}

// InsertRay integrates one depth return: the cells along the segment from
// origin to end are observed free; the end cell is observed occupied when
// hit is true (a surface return) and free otherwise (a max-range miss).
func (g *LocalGrid) InsertRay(origin, end geom.Vec3, hit bool) {
	var w dda
	for w.init(origin, end, g.res); w.more(); w.step() {
		g.write(w.ix, w.iy, w.iz, Free, false)
	}
	if hit {
		g.write(w.ex, w.ey, w.ez, Occupied, true)
	} else {
		g.write(w.ex, w.ey, w.ez, Free, false)
	}
}

// InsertCloud implements Map with per-capture voxel dedup.
func (g *LocalGrid) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	g.scratch.collect(g.res, origin, ends, hits)
	for _, v := range g.scratch.voxels {
		if !v.occ {
			ix, iy, iz := keyIndices(v.key)
			g.write(ix, iy, iz, Free, false)
		}
	}
	for _, v := range g.scratch.voxels {
		if v.occ {
			ix, iy, iz := keyIndices(v.key)
			g.write(ix, iy, iz, Occupied, true)
		}
	}
}

// write stores a voxel state if the voxel is inside the window. Occupied
// wins over Free on the same cell unless force is set (a surface return
// beats pass-through).
func (g *LocalGrid) write(ix, iy, iz int, st VoxelState, force bool) {
	p := voxelCenter(ix, iy, iz, g.res)
	if !g.inWindow(p) {
		return
	}
	s := g.slot(ix, iy, iz)
	k := packKey(ix, iy, iz)
	if g.keys[s] == k && g.states[s] == Occupied && !force {
		return
	}
	prevOccupied := g.keys[s] == k && g.states[s] == Occupied
	g.keys[s] = k
	g.states[s] = st
	if st == Occupied {
		if !g.occupied.has(int64(k)) {
			g.occupied.put(int64(k), 1)
			g.inflated.paint(ix, iy, iz, 1)
		}
	} else if prevOccupied {
		g.occupied.del(int64(k))
		g.inflated.paint(ix, iy, iz, -1)
	}
}

// BlockedWithin reports whether any occupied voxel lies inside an
// ellipsoid around p with horizontal semi-axis rh and vertical semi-axis
// rv — a crude bounding-box-style clearance probe, deliberately coarser
// than the planning inflation. MLS-V2's safety checks used exactly this
// kind of laterally swollen obstacle footprint, which "swallowed" nearby
// free space (paper Fig. 6) and invalidated otherwise flyable paths.
func (g *LocalGrid) BlockedWithin(p geom.Vec3, rh, rv float64) bool {
	if g.occupied.n == 0 {
		return false
	}
	nh := int(rh/g.res) + 1
	nv := int(rv/g.res) + 1
	ix, iy, iz := voxelOf(p, g.res)
	eh := rh + g.res
	ev := rv + g.res
	for dz := -nv; dz <= nv; dz++ {
		for dy := -nh; dy <= nh; dy++ {
			for dx := -nh; dx <= nh; dx++ {
				k := packKey(ix+dx, iy+dy, iz+dz)
				if !g.occupied.has(int64(k)) {
					continue
				}
				c := keyCenter(k, g.res)
				ddx, ddy, ddz := c.X-p.X, c.Y-p.Y, c.Z-p.Z
				if (ddx*ddx+ddy*ddy)/(eh*eh)+(ddz*ddz)/(ev*ev) <= 1 {
					return true
				}
			}
		}
	}
	return false
}

// Resolution implements Map.
func (g *LocalGrid) Resolution() float64 { return g.res }

// MemoryBytes implements Map.
func (g *LocalGrid) MemoryBytes() int {
	return len(g.keys)*8 + len(g.states) + g.occupied.n*16 + g.inflated.n*20
}

// OccupiedVoxels returns the number of voxels currently occupied.
func (g *LocalGrid) OccupiedVoxels() int { return g.occupied.n }

var _ Map = (*LocalGrid)(nil)
