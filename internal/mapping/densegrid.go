package mapping

import (
	"repro/internal/geom"
)

// DenseGrid is the paper's first mapping implementation: a static
// three-dimensional array over a fixed region. Access is O(1), but memory
// grows with the cube of the extent over resolution — the
// granularity-versus-memory trade-off §III-B calls out and the
// BenchmarkMapMemory experiment quantifies.
type DenseGrid struct {
	bounds     geom.AABB
	res        float64
	inflation  float64
	nx, ny, nz int
	cells      []VoxelState
	inflated   []bool // same indexing; true within inflation radius of occupied
	occupied   int
	scratch    cloudScratch
}

// NewDenseGrid allocates a grid covering bounds at the given resolution
// with the given obstacle inflation radius. The bounds are expanded to
// whole voxels.
func NewDenseGrid(bounds geom.AABB, res, inflation float64) *DenseGrid {
	if res <= 0 {
		res = 0.5
	}
	size := bounds.Size()
	nx := int(size.X/res) + 1
	ny := int(size.Y/res) + 1
	nz := int(size.Z/res) + 1
	return &DenseGrid{
		bounds:    bounds,
		res:       res,
		inflation: inflation,
		nx:        nx, ny: ny, nz: nz,
		cells:    make([]VoxelState, nx*ny*nz),
		inflated: make([]bool, nx*ny*nz),
	}
}

// index maps a world point to a linear cell index; ok=false outside bounds.
func (g *DenseGrid) index(p geom.Vec3) (int, bool) {
	if !g.bounds.Contains(p) {
		return 0, false
	}
	ix := int((p.X - g.bounds.Min.X) / g.res)
	iy := int((p.Y - g.bounds.Min.Y) / g.res)
	iz := int((p.Z - g.bounds.Min.Z) / g.res)
	if ix >= g.nx || iy >= g.ny || iz >= g.nz {
		return 0, false
	}
	return (iz*g.ny+iy)*g.nx + ix, true
}

// State implements Map.
func (g *DenseGrid) State(p geom.Vec3) VoxelState {
	i, ok := g.index(p)
	if !ok {
		return Unknown
	}
	return g.cells[i]
}

// Blocked implements Map.
func (g *DenseGrid) Blocked(p geom.Vec3) bool {
	i, ok := g.index(p)
	if !ok {
		return false
	}
	return g.inflated[i]
}

// InsertRay implements Map.
func (g *DenseGrid) InsertRay(origin, end geom.Vec3, hit bool) {
	var w dda
	for w.init(origin, end, g.res); w.more(); w.step() {
		g.markFree(voxelCenter(w.ix, w.iy, w.iz, g.res))
	}
	if hit {
		g.setOccupied(end)
	} else {
		g.markFree(end)
	}
}

// InsertCloud implements Map with per-capture voxel dedup.
func (g *DenseGrid) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	g.scratch.collect(g.res, origin, ends, hits)
	for _, v := range g.scratch.voxels {
		if !v.occ {
			g.markFree(v.p)
		}
	}
	for _, v := range g.scratch.voxels {
		if v.occ {
			g.setOccupied(v.p)
		}
	}
}

// markFree marks the voxel containing p observed-free unless it was
// already observed.
func (g *DenseGrid) markFree(p geom.Vec3) {
	if i, ok := g.index(p); ok && g.cells[i] == Unknown {
		g.cells[i] = Free
	}
}

// setOccupied marks the voxel containing p occupied and paints the
// inflation footprint around it.
func (g *DenseGrid) setOccupied(p geom.Vec3) {
	i, ok := g.index(p)
	if !ok {
		return
	}
	if g.cells[i] == Occupied {
		return
	}
	g.cells[i] = Occupied
	g.occupied++
	r := int(g.inflation/g.res) + 1
	ix, iy, iz := voxelOf(p.Sub(g.bounds.Min), g.res)
	rr := g.inflation * g.inflation
	for dz := -r; dz <= r; dz++ {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				jx, jy, jz := ix+dx, iy+dy, iz+dz
				if jx < 0 || jy < 0 || jz < 0 || jx >= g.nx || jy >= g.ny || jz >= g.nz {
					continue
				}
				d := geom.V3(float64(dx), float64(dy), float64(dz)).Scale(g.res)
				if d.LenSq() <= rr+g.res*g.res {
					g.inflated[(jz*g.ny+jy)*g.nx+jx] = true
				}
			}
		}
	}
}

// Resolution implements Map.
func (g *DenseGrid) Resolution() float64 { return g.res }

// InflationRadius implements Map.
func (g *DenseGrid) InflationRadius() float64 { return g.inflation }

// MemoryBytes implements Map.
func (g *DenseGrid) MemoryBytes() int {
	return len(g.cells)*1 + len(g.inflated)*1
}

// OccupiedVoxels implements Map.
func (g *DenseGrid) OccupiedVoxels() int { return g.occupied }

var _ Map = (*DenseGrid)(nil)
