package vision

import (
	"math"

	"repro/internal/geom"
)

// Camera is a downward-facing pinhole camera rigidly mounted under the
// drone, matching the downward D435i of the paper's platform. Only yaw is
// modeled (the gimbal-less mount keeps the optical axis vertical; the small
// roll/pitch of a near-hover multirotor is folded into pixel noise).
type Camera struct {
	W, H    int     // image size in pixels
	FocalPx float64 // focal length in pixels
	Pos     geom.Vec3
	Yaw     float64
}

// DefaultCamera returns the camera intrinsics used across the system: a
// 128x128 image with a ~49 degree field of view.
func DefaultCamera() Camera {
	return Camera{W: 128, H: 128, FocalPx: 140}
}

// GroundFootprint returns the side length in meters of the square ground
// patch visible from altitude h above the ground.
func (c Camera) GroundFootprint(h float64) float64 {
	if h <= 0 {
		return 0
	}
	return float64(c.W) / c.FocalPx * h
}

// ProjectGround maps a ground-plane point (p.Z is the ground height under
// the camera) to pixel coordinates. ok is false when the camera is at or
// below the ground or the point projects outside the image.
func (c Camera) ProjectGround(p geom.Vec3) (geom.Vec2, bool) {
	h := c.Pos.Z - p.Z
	if h <= 0.01 {
		return geom.Vec2{}, false
	}
	d := p.Sub(c.Pos)
	cos, sin := math.Cos(-c.Yaw), math.Sin(-c.Yaw)
	lx := d.X*cos - d.Y*sin
	ly := d.X*sin + d.Y*cos
	u := float64(c.W)/2 + c.FocalPx*lx/h
	v := float64(c.H)/2 + c.FocalPx*ly/h
	if u < 0 || v < 0 || u >= float64(c.W) || v >= float64(c.H) {
		return geom.V2(u, v), false
	}
	return geom.V2(u, v), true
}

// PixelToGround inverse-projects pixel (u, v) onto the horizontal plane at
// height groundZ. ok is false when the camera is at or below that plane.
func (c Camera) PixelToGround(u, v, groundZ float64) (geom.Vec3, bool) {
	h := c.Pos.Z - groundZ
	if h <= 0.01 {
		return geom.Vec3{}, false
	}
	lx := (u - float64(c.W)/2) / c.FocalPx * h
	ly := (v - float64(c.H)/2) / c.FocalPx * h
	cos, sin := math.Cos(c.Yaw), math.Sin(c.Yaw)
	wx := lx*cos - ly*sin
	wy := lx*sin + ly*cos
	return geom.V3(c.Pos.X+wx, c.Pos.Y+wy, groundZ), true
}

// ApparentSizePx returns the on-image side length in pixels of a ground
// object of the given metric size seen from the camera's altitude above
// groundZ.
func (c Camera) ApparentSizePx(size, groundZ float64) float64 {
	h := c.Pos.Z - groundZ
	if h <= 0.01 {
		return 0
	}
	return c.FocalPx * size / h
}

// GroundTexture procedurally shades the bare ground so the detector works
// against realistic clutter rather than a flat field. It hashes world
// coordinates into a smooth multi-octave value-noise pattern.
type GroundTexture struct {
	Seed int64
	// Base is the mean albedo of the terrain; Contrast scales the noise
	// amplitude around it.
	Base, Contrast float64
}

// At returns the albedo of the terrain at ground position (x, y).
func (g GroundTexture) At(x, y float64) float64 {
	v := g.Base +
		g.Contrast*(valueNoise(x*octave1Scale, y*octave1Scale, g.Seed)-0.5) +
		0.5*g.Contrast*(valueNoise(x*octave2Scale, y*octave2Scale, g.Seed^octave2Seed)-0.5)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Noise octaves of GroundTexture.At: lattice scale per ground meter, and
// the second octave's seed offset.
const (
	octave1Scale = 0.35
	octave2Scale = 1.3
	octave2Seed  = 0x9e37
)

// noiseLattice holds latticeHash for every point of one noise octave's
// lattice that a frame's ground footprint can reach, so the render loops
// read a cell's four corner hashes instead of hashing them. A cell outside
// the table is hashed directly, so exactness never depends on how the
// footprint was estimated: the table only serves values latticeHash
// returns.
type noiseLattice struct {
	seed int64
	// x0, y0 are the lattice coordinates of the table's first point; the
	// table is w points wide. hash[j*w+i] holds the hash of the point
	// (x0+i, y0+j); the cells whose lower-left point has 0 <= i < maxI and
	// 0 <= j < maxJ have all four corners in the table.
	x0, y0     float64
	maxI, maxJ float64
	w          int
	hash       []float64
}

// latticePad widens a frame's table past its corner-pixel footprint, in
// lattice cells, to cover samples that lie just outside it (the FastGround
// lattice's extra column, the incremental pixel walk's drift).
const latticePad = 2

// maxLatticeCoord bounds the lattice coordinates a table may hold: far
// inside float64's exact-integer range, so the table's coordinates and the
// cell offsets computed from them are exact.
const maxLatticeCoord = 1 << 40

// fill points the table at seed and hashes the lattice points of the
// ground rectangle [minX,maxX]x[minY,maxY] at the given octave scale,
// padded by latticePad cells (plus the upper corners of the last cell). A
// table of more than limit points, or one past maxLatticeCoord (huge or
// non-finite poses), is left empty: every sample then takes the direct
// path.
func (l *noiseLattice) fill(seed int64, scale, minX, minY, maxX, maxY float64, limit int) {
	l.seed = seed
	x0 := math.Floor(minX*scale) - latticePad
	y0 := math.Floor(minY*scale) - latticePad
	x1 := math.Floor(maxX*scale) + latticePad + 1
	y1 := math.Floor(maxY*scale) + latticePad + 1
	nx, ny := x1-x0+1, y1-y0+1
	if !(x0 >= -maxLatticeCoord && y0 >= -maxLatticeCoord && x1 <= maxLatticeCoord &&
		y1 <= maxLatticeCoord && nx*ny <= float64(limit)) {
		l.x0, l.y0, l.maxI, l.maxJ, l.w = 0, 0, 0, 0, 0
		return
	}
	w, h := int(nx), int(ny)
	if cap(l.hash) < w*h {
		// The point count moves with the footprint's alignment to the
		// lattice and with altitude; headroom keeps a camera that moves
		// at a steady altitude from regrowing its table.
		l.hash = make([]float64, w*h, (w+4)*(h+4))
	}
	l.hash = l.hash[:w*h]
	for j := 0; j < h; j++ {
		y := y0 + float64(j)
		row := l.hash[j*w : (j+1)*w]
		for i := range row {
			row[i] = latticeHash(x0+float64(i), y, seed)
		}
	}
	l.x0, l.y0, l.maxI, l.maxJ, l.w = x0, y0, nx-1, ny-1, w
}

// cellAt returns the index in hash of the lower-left corner of the cell
// whose lower-left lattice point is (x0, y0), both floors, or -1 when the
// table does not hold the cell. The offsets are exact for every cell the
// test admits; NaN fails it.
func (l *noiseLattice) cellAt(x0, y0 float64) int {
	i, j := x0-l.x0, y0-l.y0
	if i >= 0 && i < l.maxI && j >= 0 && j < l.maxJ {
		return int(j)*l.w + int(i)
	}
	return -1
}

// at returns valueNoise(x, y, l.seed), reading the corner hashes from the
// table when it holds the cell.
func (l *noiseLattice) at(x, y float64) float64 {
	x0, y0 := floorIn(x), floorIn(y)
	if k := l.cellAt(x0, y0); k >= 0 {
		return lerpCell(l.hash, k, l.w, x-x0, y-y0)
	}
	return valueNoise(x, y, l.seed)
}

// lerpCell is valueNoise's blend, at the offset (fx, fy) inside one cell,
// of the cell's corner hashes in a table h that is w points wide: h[k] and
// h[k+1] on the cell's lower row, h[k+w] and h[k+w+1] on its upper row.
func lerpCell(h []float64, k, w int, fx, fy float64) float64 {
	sx := fx * fx * (3 - 2*fx)
	sy := fy * fy * (3 - 2*fy)
	top := h[k]*(1-sx) + h[k+1]*sx
	bot := h[k+w]*(1-sx) + h[k+w+1]*sx
	return top*(1-sy) + bot*sy
}

// floorIn is math.Floor for |x| < 2^52, except that it maps -0 to +0
// (which leaves every noise value unchanged). Unlike math.Floor it
// compiles to a few instructions without a CPU-feature branch or a
// fallback call, which lets the render loop keep its values in registers.
// Outside that range (NaN, ±Inf, huge) its result is arbitrary, which is
// harmless: a non-empty table bounds every sample of its frame well
// inside the range, and for any other pose fill leaves the tables empty,
// so cellAt rejects every cell and each sample takes the direct path.
func floorIn(x float64) float64 {
	f := float64(int64(x))
	if f > x {
		f--
	}
	return f
}

// valueNoise is deterministic 2-D value noise in [0,1] with bilinear
// interpolation between hashed lattice points.
func valueNoise(x, y float64, seed int64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	fx, fy := x-x0, y-y0
	// Smoothstep for C1 continuity.
	sx := fx * fx * (3 - 2*fx)
	sy := fy * fy * (3 - 2*fy)
	top := latticeHash(x0, y0, seed)*(1-sx) + latticeHash(x0+1, y0, seed)*sx
	bot := latticeHash(x0, y0+1, seed)*(1-sx) + latticeHash(x0+1, y0+1, seed)*sx
	return top*(1-sy) + bot*sy
}

// latticeHash hashes one noise lattice point. It is a top-level function
// (not a closure) so the renderer's four-corner evaluation inlines; it is
// called per pixel per octave on the capture hot path.
func latticeHash(ix, iy float64, seed int64) float64 {
	n := int64(ix)*73856093 ^ int64(iy)*19349663 ^ seed*83492791
	n = (n ^ (n >> 13)) * 1274126177
	n ^= n >> 16
	return float64(uint64(n)%10000) / 10000
}
