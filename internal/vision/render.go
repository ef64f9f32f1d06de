package vision

import (
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Scene is everything the downward camera can see: the terrain and the
// marker pads lying on it. Obstacle occlusion of the ground (e.g. flying
// over a roof) is handled by the simulator substituting the occluder's
// albedo via OccluderAt.
//
// A Scene carries reusable render scratch and therefore must not be
// rendered from multiple goroutines concurrently.
type Scene struct {
	Ground  GroundTexture
	Markers []MarkerInstance
	// OccluderAt, when non-nil, reports whether the vertical ray from the
	// camera down to ground position (x, y) is blocked, and by what albedo
	// at what height. Used for rooftops, tree canopies and water.
	OccluderAt func(x, y float64) (albedo float64, top float64, blocked bool)

	// OccluderFree, when non-nil, reports that no occluder intersects the
	// axis-aligned ground rectangle [x0,x1]x[y0,y1]. The renderer asks it
	// once per 16x16-pixel tile with the tile's ground footprint; a true
	// answer lets the per-pixel OccluderAt query be skipped for that tile's
	// pixels with bit-identical output (every such query would have
	// returned blocked=false). May answer false conservatively.
	OccluderFree func(x0, y0, x1, y1 float64) bool

	// FastGround renders the ground texture from a reduced sample lattice
	// (every 4th column, every 2nd row), bilinearly interpolated in pixel
	// space (fast engine mode). The texture's feature size — the noise
	// octaves span ~0.8 m — is an order of magnitude above the per-pixel
	// ground footprint, so the lattice stays well above Nyquist. Markers and
	// occluders stay exact per pixel — only the smooth noise field is
	// approximated. Off (the zero value), every pixel samples the texture
	// exactly.
	FastGround bool

	// markerBoxes holds the per-frame conservative ground-space bounding
	// boxes of the markers, so the per-pixel loop only evaluates the exact
	// (rotated) pad containment inside a marker's box.
	markerBoxes []groundBox
	// oct1 and oct2 hold the frame's lattice hashes of GroundTexture.At's
	// two noise octaves.
	oct1, oct2 noiseLattice
	// lxCos and lxSin are the exact loop's per-column projection terms.
	lxCos, lxSin []float64
	// tileFree marks, per cullTile-square pixel tile in raster order, the
	// tiles whose pixels skip the OccluderAt query.
	tileFree []bool
	// FastGround scratch: the lattice rows bracketing the current pixel-row
	// pair, their blend, and the expanded full-width texture row.
	rowLo, rowHi, rowMid, groundRow []float64
}

// groundBox is an axis-aligned ground-plane rectangle around one marker,
// carrying the pad's frame-hoisted rotation terms (cos(-Yaw), sin(-Yaw))
// so the per-pixel containment test needs no trigonometry.
type groundBox struct {
	minX, minY, maxX, maxY float64
	cosN, sinN             float64
}

// Render draws the scene as seen by cam by inverse-projecting every pixel
// onto the ground plane, allocating a fresh image. The steady-state hot
// path is RenderInto, which reuses a caller-owned image.
func (s *Scene) Render(cam Camera) *Image {
	im := NewImage(cam.W, cam.H)
	s.RenderInto(cam, im)
	return im
}

// RenderInto draws the scene as seen by cam into im, resizing it when the
// camera geometry changed. It is the hot path of the perception stack and
// allocates nothing in steady state: the output buffer and the per-frame
// tables are reused. Each frame hashes the noise lattice its footprint
// can reach once (noiseLattice), asks OccluderFree once per pixel tile
// (cullTiles) and, in the exact loop, hoists the projection's column and
// row terms; the per-pixel marker test is prescreened by ground-space
// marker bounding boxes (a conservative superset of pad containment at
// every finite ground point). None of it changes a pixel's bits.
func (s *Scene) RenderInto(cam Camera, im *Image) {
	if im.W != cam.W || im.H != cam.H || len(im.Pix) != cam.W*cam.H {
		*im = *NewImage(cam.W, cam.H)
	}
	h := cam.Pos.Z
	if h <= 0.01 {
		for i := range im.Pix {
			im.Pix[i] = 0
		}
		return
	}

	// Conservative ground-space AABB of each (rotated) marker pad.
	if cap(s.markerBoxes) < len(s.Markers) {
		s.markerBoxes = make([]groundBox, len(s.Markers))
	}
	boxes := s.markerBoxes[:len(s.Markers)]
	for i := range s.Markers {
		m := &s.Markers[i]
		c, sn := math.Cos(m.Yaw), math.Sin(m.Yaw)
		half := (absf(c) + absf(sn)) * m.Size / 2
		boxes[i] = groundBox{
			minX: m.Center.X - half, minY: m.Center.Y - half,
			maxX: m.Center.X + half, maxY: m.Center.Y + half,
			cosN: math.Cos(-m.Yaw), sinN: math.Sin(-m.Yaw),
		}
	}

	cos, sin := math.Cos(cam.Yaw), math.Sin(cam.Yaw)
	tilesX := s.cullTiles(cam, cos, sin)
	minX, minY, maxX, maxY := groundRect(cam, cos, sin, 0, 0, cam.W-1, cam.H-1)
	// A table with more points than the frame has pixels would cost more
	// to fill than the hashes it saves.
	g := s.Ground
	s.oct1.fill(g.Seed, octave1Scale, minX, minY, maxX, maxY, cam.W*cam.H)
	s.oct2.fill(g.Seed^octave2Seed, octave2Scale, minX, minY, maxX, maxY, cam.W*cam.H)
	if s.FastGround {
		s.renderFastGround(cam, im, boxes, cos, sin, tilesX)
		return
	}
	cw, ch := float64(cam.W)/2, float64(cam.H)/2
	// Column terms once per frame and row terms once per row: each pixel
	// still computes lx*cos - ly*sin from the same rounded products.
	if cap(s.lxCos) < cam.W {
		s.lxCos = make([]float64, cam.W)
		s.lxSin = make([]float64, cam.W)
	}
	lxCos, lxSin := s.lxCos[:cam.W], s.lxSin[:cam.W]
	o1, o2 := &s.oct1, &s.oct2
	for px := range lxCos {
		lx := (float64(px) + 0.5 - cw) / cam.FocalPx
		lxCos[px], lxSin[px] = lx*cos, lx*sin
	}
	for py := 0; py < cam.H; py++ {
		ly := (float64(py) + 0.5 - ch) / cam.FocalPx
		lySin, lyCos := ly*sin, ly*cos
		row := im.Pix[py*cam.W : (py+1)*cam.W]
		free := s.tileFree[py/cullTile*tilesX:]
		for px := range row {
			// Rotate by yaw into world frame, then hit the ground plane
			// assuming flat terrain at z=0.
			gx := cam.Pos.X + (lxCos[px]-lySin)*h
			gy := cam.Pos.Y + (lxSin[px]+lyCos)*h

			if !free[px/cullTile] {
				if alb, top, blocked := s.OccluderAt(gx, gy); blocked && top < h {
					// The occluder top replaces the ground along the pixel's
					// vertical sample ray; its albedo is flat, so no
					// re-projection onto the top surface is needed.
					row[px] = alb
					continue
				}
			}
			val, onMarker := 0.0, false
			p := geom.V3(gx, gy, 0)
			for i := range boxes {
				b := &boxes[i]
				if gx < b.minX || gx > b.maxX || gy < b.minY || gy > b.maxY {
					continue
				}
				if u, v, ok := s.Markers[i].ContainsGroundRot(p, b.cosN, b.sinN); ok {
					val = s.Markers[i].Marker.PatternAt(u, v)
					onMarker = true
					break
				}
			}
			if !onMarker {
				// GroundTexture.At, with both octaves inline: a call to
				// groundAt, which is too large to inline, spills the
				// loop's registers and measured ~10% more time per frame
				// (BenchmarkRender, BenchmarkRenderSweep; 2-vCPU x86-64).
				x, y := gx*octave1Scale, gy*octave1Scale
				x0, y0 := floorIn(x), floorIn(y)
				n1 := 0.0
				if k := o1.cellAt(x0, y0); k >= 0 {
					n1 = lerpCell(o1.hash, k, o1.w, x-x0, y-y0)
				} else {
					n1 = valueNoise(x, y, o1.seed)
				}
				x, y = gx*octave2Scale, gy*octave2Scale
				x0, y0 = floorIn(x), floorIn(y)
				n2 := 0.0
				if k := o2.cellAt(x0, y0); k >= 0 {
					n2 = lerpCell(o2.hash, k, o2.w, x-x0, y-y0)
				} else {
					n2 = valueNoise(x, y, o2.seed)
				}
				val = clamp01(g.Base + g.Contrast*(n1-0.5) + 0.5*g.Contrast*(n2-0.5))
			}
			row[px] = val
		}
	}
}

// groundAt is GroundTexture.At with both octaves' corner hashes read from
// the frame's lattice tables.
func (s *Scene) groundAt(x, y float64) float64 {
	g := &s.Ground
	return clamp01(g.Base +
		g.Contrast*(s.oct1.at(x*octave1Scale, y*octave1Scale)-0.5) +
		0.5*g.Contrast*(s.oct2.at(x*octave2Scale, y*octave2Scale)-0.5))
}

// cullTile is the side, in pixels, of the square tiles the renderer asks
// OccluderFree about.
const cullTile = 16

// cullTiles fills s.tileFree with one flag per cullTile-square pixel tile,
// in raster order, and returns the number of tiles per row. A flag is set
// when the tile's pixels need no OccluderAt query: there is no OccluderAt,
// or OccluderFree reports the tile's ground rectangle clear. The rectangle
// comes from the tile's corner pixels (see groundRect), padded by a
// millimeter to absorb the FastGround pixel walk's float drift; a tile
// reaching past cullRange (a non-finite or absurd pose) keeps its queries,
// since there the drift could outgrow the pad. The cull never changes a
// pixel: it only removes queries that were guaranteed to answer "not
// blocked".
func (s *Scene) cullTiles(cam Camera, cos, sin float64) int {
	tilesX := (cam.W + cullTile - 1) / cullTile
	tilesY := (cam.H + cullTile - 1) / cullTile
	if cap(s.tileFree) < tilesX*tilesY {
		s.tileFree = make([]bool, tilesX*tilesY)
	}
	s.tileFree = s.tileFree[:tilesX*tilesY]
	const cullPad, cullRange = 1e-3, 1e9
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			free := s.OccluderAt == nil
			if !free && s.OccluderFree != nil {
				px0, py0 := tx*cullTile, ty*cullTile
				px1, py1 := min(px0+cullTile, cam.W)-1, min(py0+cullTile, cam.H)-1
				minX, minY, maxX, maxY := groundRect(cam, cos, sin, px0, py0, px1, py1)
				free = minX >= -cullRange && minY >= -cullRange && maxX <= cullRange && maxY <= cullRange &&
					s.OccluderFree(minX-cullPad, minY-cullPad, maxX+cullPad, maxY+cullPad)
			}
			s.tileFree[ty*tilesX+tx] = free
		}
	}
	return tilesX
}

// groundRect returns the ground-plane bounding box of the pixel centers of
// the pixel rectangle [px0,px1]x[py0,py1]. The projection is affine in
// pixel coordinates at fixed altitude, so the four corner pixels bound
// every pixel center inside.
func groundRect(cam Camera, cos, sin float64, px0, py0, px1, py1 int) (minX, minY, maxX, maxY float64) {
	h := cam.Pos.Z
	cw, ch := float64(cam.W)/2, float64(cam.H)/2
	for corner := 0; corner < 4; corner++ {
		px, py := px0, py0
		if corner&1 != 0 {
			px = px1
		}
		if corner&2 != 0 {
			py = py1
		}
		lx := (float64(px) + 0.5 - cw) / cam.FocalPx
		ly := (float64(py) + 0.5 - ch) / cam.FocalPx
		gx := cam.Pos.X + (lx*cos-ly*sin)*h
		gy := cam.Pos.Y + (lx*sin+ly*cos)*h
		if corner == 0 {
			minX, minY, maxX, maxY = gx, gy, gx, gy
			continue
		}
		minX, minY = min(minX, gx), min(minY, gy)
		maxX, maxY = max(maxX, gx), max(maxY, gy)
	}
	return minX, minY, maxX, maxY
}

// renderFastGround is the FastGround pixel loop: same inverse projection,
// same exact per-pixel occluder and marker evaluation, but ground-texture
// values come from a lattice sampled at every 4th pixel column of every
// 2nd pixel row and bilinearly interpolated between. The noise field is
// C1-smooth at feature scales of meters while the lattice spacing is
// centimeters of ground, so the interpolation error is far below the
// photometric-conditioning noise; campaign.VerifyFast bounds the aggregate
// effect.
func (s *Scene) renderFastGround(cam Camera, im *Image, boxes []groundBox, cos, sin float64, tilesX int) {
	h := cam.Pos.Z
	cw, ch := float64(cam.W)/2, float64(cam.H)/2
	const strideX = 4
	// Lattice columns sit at px = strideX*j; one extra column past the right
	// edge closes the last interpolation span.
	nx := (cam.W-1)/strideX + 2
	if cap(s.rowLo) < nx {
		s.rowLo = make([]float64, nx)
		s.rowHi = make([]float64, nx)
		s.rowMid = make([]float64, nx)
	}
	if cap(s.groundRow) < cam.W {
		s.groundRow = make([]float64, cam.W)
	}
	rowLo, rowHi, rowMid := s.rowLo[:nx], s.rowHi[:nx], s.rowMid[:nx]
	gRow := s.groundRow[:cam.W]
	// Per-pixel ground step along a pixel row (the projection is linear in
	// px at fixed py, so the loop walks the ground incrementally).
	stepX := cos / cam.FocalPx * h
	stepY := sin / cam.FocalPx * h

	// sampleRow fills dst with the ground texture along lattice row py.
	sampleRow := func(py int, dst []float64) {
		ly := (float64(py) + 0.5 - ch) / cam.FocalPx
		lx := (0.5 - cw) / cam.FocalPx
		gx := cam.Pos.X + (lx*cos-ly*sin)*h
		gy := cam.Pos.Y + (lx*sin+ly*cos)*h
		for j := 0; j < nx; j++ {
			dst[j] = s.groundAt(gx, gy)
			gx += strideX * stepX
			gy += strideX * stepY
		}
	}

	sampleRow(0, rowLo)
	for py := 0; py < cam.H; py++ {
		if py%2 == 0 {
			if py > 0 {
				// Entering a new row pair: the high row becomes the low one.
				rowLo, rowHi = rowHi, rowLo
			}
			hiY := py + 2
			if hiY >= cam.H {
				hiY = cam.H - 1
			}
			sampleRow(hiY, rowHi)
		}
		// Expand the lattice into a full-width texture row: lattice pixels
		// take the sample, the pixels between them interpolate linearly; odd
		// pixel rows blend the two bracketing lattice rows first.
		src := rowLo
		if py%2 == 1 {
			for j := 0; j < nx; j++ {
				rowMid[j] = 0.5 * (rowLo[j] + rowHi[j])
			}
			src = rowMid
		}
		for j := 0; j+1 < nx; j++ {
			at := strideX * j
			if at >= cam.W {
				break
			}
			a := src[j]
			d := (src[j+1] - a) / strideX
			for o := 0; o < strideX && at+o < cam.W; o++ {
				gRow[at+o] = a + float64(o)*d
			}
		}

		base := py * cam.W
		ly := (float64(py) + 0.5 - ch) / cam.FocalPx
		lx := (0.5 - cw) / cam.FocalPx
		gx := cam.Pos.X + (lx*cos-ly*sin)*h
		gy := cam.Pos.Y + (lx*sin+ly*cos)*h
		free := s.tileFree[py/cullTile*tilesX:]
		for px := 0; px < cam.W; px++ {
			if !free[px/cullTile] {
				if alb, top, blocked := s.OccluderAt(gx, gy); blocked && top < h {
					im.Pix[base+px] = alb
					gx += stepX
					gy += stepY
					continue
				}
			}
			val, onMarker := 0.0, false
			for i := range boxes {
				b := &boxes[i]
				if gx < b.minX || gx > b.maxX || gy < b.minY || gy > b.maxY {
					continue
				}
				if u, v, ok := s.Markers[i].ContainsGroundRot(geom.V3(gx, gy, 0), b.cosN, b.sinN); ok {
					val = s.Markers[i].Marker.PatternAt(u, v)
					onMarker = true
					break
				}
			}
			if !onMarker {
				val = gRow[px]
			}
			im.Pix[base+px] = val
			gx += stepX
			gy += stepY
		}
	}
	s.rowLo, s.rowHi = rowLo, rowHi
}

// Conditions models the photometric state of one captured frame. Zero
// value = clear daylight. Strengths are in [0,1].
type Conditions struct {
	Fog        float64 // altitude-scaled contrast washout toward sky gray
	Glare      float64 // additive saturating sun-glare blob
	GlareU     float64 // glare center as image fraction [0,1]
	GlareV     float64
	Shadow     float64 // multiplicative dark band across the frame
	ShadowPos  float64 // band position as image fraction
	RainNoise  float64 // white noise sigma from rain streaks on the lens
	MotionBlur float64 // blur length in pixels along X
	Brightness float64 // additive offset, may be negative (dusk)
	Contrast   float64 // multiplicative gain around 0.5; 1 = neutral, 0 treated as 1

	// Occlusion draws an opaque foreground blob (leaf litter, mud splash,
	// hard cast shadow) of the given strength; OccU/OccV position its
	// center as image fractions and OccR is its radius as a fraction of
	// the image width. This is the "partial marker occlusion" condition of
	// paper §III-A.
	Occlusion  float64
	OccU, OccV float64
	OccR       float64
}

func effectiveContrast(g float64) float64 {
	if g == 0 {
		return 1
	}
	return g
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Apply degrades the image in place according to the conditions, using rng
// for the stochastic components (rain noise). altitude scales the fog term:
// more atmosphere between camera and ground means more washout.
func (c Conditions) Apply(im *Image, altitude float64, rng *rand.Rand) {
	c.ApplyReusing(im, altitude, rng, nil)
}

// ApplyReusing is Apply with a caller-owned scratch image for the motion
// blur pass, making steady-state condition application allocation-free.
// scratch may be nil or wrongly sized, in which case the pass allocates.
func (c Conditions) ApplyReusing(im *Image, altitude float64, rng *rand.Rand, scratch *Image) {
	gain := effectiveContrast(c.Contrast)

	// Contrast and brightness first (sensor-level), as the paper's
	// augmentation pipeline does.
	if gain != 1 || c.Brightness != 0 {
		for i, v := range im.Pix {
			v = (v-0.5)*gain + 0.5 + c.Brightness
			im.Pix[i] = clamp01(v)
		}
	}

	// Fog: blend toward sky gray, stronger with altitude.
	if c.Fog > 0 {
		f := c.Fog * geomClamp(altitude/25, 0.2, 1)
		const sky = 0.72
		for i, v := range im.Pix {
			im.Pix[i] = v*(1-f) + sky*f
		}
	}

	// Sun glare: a localized saturating additive blob — lens flare off a
	// reflective patch rather than whole-frame washout, so detections fail
	// only when the blob overlaps the marker.
	if c.Glare > 0 {
		gx := c.GlareU * float64(im.W)
		gy := c.GlareV * float64(im.H)
		sigma := 0.12 * float64(im.W) * (0.6 + 0.8*c.Glare)
		inv := 1 / (2 * sigma * sigma)
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				dx := float64(x) - gx
				dy := float64(y) - gy
				g := c.Glare * 1.4 * expFast(-(dx*dx+dy*dy)*inv)
				if g > 0.003 {
					im.Pix[y*im.W+x] = clamp01(im.Pix[y*im.W+x] + g)
				}
			}
		}
	}

	// Shadow: a soft dark band (building or cloud shadow) across the frame.
	if c.Shadow > 0 {
		edge := c.ShadowPos * float64(im.H)
		width := 0.25 * float64(im.H)
		for y := 0; y < im.H; y++ {
			d := (float64(y) - edge) / width
			if d < 0 {
				d = -d
			}
			if d > 1 {
				continue
			}
			atten := 1 - c.Shadow*(1-d)
			for x := 0; x < im.W; x++ {
				im.Pix[y*im.W+x] *= atten
			}
		}
	}

	// Hard occlusion: an opaque mid-gray disc, rendered before blur so its
	// edge participates in the optics like a real foreground object.
	if c.Occlusion > 0 && c.OccR > 0 {
		ox := c.OccU * float64(im.W)
		oy := c.OccV * float64(im.H)
		r := c.OccR * float64(im.W)
		r2 := r * r
		const blobAlbedo = 0.35
		x0, x1 := int(ox-r)-1, int(ox+r)+1
		y0, y1 := int(oy-r)-1, int(oy+r)+1
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				dx := float64(x) - ox
				dy := float64(y) - oy
				if dx*dx+dy*dy <= r2 {
					im.Set(x, y, blobAlbedo*c.Occlusion+im.At(x, y)*(1-c.Occlusion))
				}
			}
		}
	}

	// Motion blur along X.
	if c.MotionBlur >= 1 {
		n := int(c.MotionBlur)
		if n > im.W/4 {
			n = im.W / 4
		}
		blurred := scratch
		if blurred == nil || blurred.W != im.W || blurred.H != im.H {
			blurred = NewImage(im.W, im.H)
		}
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				var s float64
				for k := 0; k <= n; k++ {
					s += im.At(x-k, y)
				}
				blurred.Pix[y*im.W+x] = s / float64(n+1)
			}
		}
		copy(im.Pix, blurred.Pix)
	}

	// Rain noise last (lens-level).
	if c.RainNoise > 0 && rng != nil {
		for i := range im.Pix {
			im.Pix[i] = clamp01(im.Pix[i] + rng.NormFloat64()*c.RainNoise)
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func geomClamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// expFast is a cheap exp(-x) approximation for x >= 0, accurate enough for
// glare shading and ~4x faster than math.Exp on the render hot path.
func expFast(x float64) float64 {
	if x > 0 {
		return 0 // only called with non-positive arguments
	}
	x = -x
	if x > 12 {
		return 0
	}
	// exp(-x) ≈ 1/(1+x+x²/2+x³/6)² on [0,12] within ~2% — fine for shading.
	t := 1 + x/2 + x*x/8 + x*x*x/48
	return 1 / (t * t)
}
