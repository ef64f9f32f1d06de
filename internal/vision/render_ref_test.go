package vision

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// renderReference is the exhaustive per-pixel renderer the optimized
// RenderInto must reproduce exactly: no noise lattice, no occluder cull,
// no marker-box prescreen, no hoisted projection terms, fresh image.
func renderReference(s *Scene, cam Camera) *Image {
	im := NewImage(cam.W, cam.H)
	h := cam.Pos.Z
	if h <= 0.01 {
		return im
	}
	cos, sin := math.Cos(cam.Yaw), math.Sin(cam.Yaw)
	cw, ch := float64(cam.W)/2, float64(cam.H)/2
	for py := 0; py < cam.H; py++ {
		for px := 0; px < cam.W; px++ {
			lx := (float64(px) + 0.5 - cw) / cam.FocalPx
			ly := (float64(py) + 0.5 - ch) / cam.FocalPx
			dx := lx*cos - ly*sin
			dy := lx*sin + ly*cos
			gx := cam.Pos.X + dx*h
			gy := cam.Pos.Y + dy*h
			im.Pix[py*cam.W+px] = referencePixel(s, gx, gy, h, s.Ground.At(gx, gy))
		}
	}
	return im
}

// referencePixel shades one pixel whose vertical ray meets the ground at
// (gx, gy) from altitude h: the occluder's albedo when one is below the
// camera, else the first marker containing the point, else ground. Every
// marker is tested for containment, except that a point with an infinite
// coordinate lies on no pad: a pad is bounded, but ContainsGround's
// arithmetic turns the infinity into NaN and would claim the point.
func referencePixel(s *Scene, gx, gy, h, ground float64) float64 {
	if s.OccluderAt != nil {
		if alb, top, blocked := s.OccluderAt(gx, gy); blocked && top < h {
			return alb
		}
	}
	if math.IsInf(gx, 0) || math.IsInf(gy, 0) {
		return ground
	}
	p := geom.V3(gx, gy, 0)
	for _, m := range s.Markers {
		if u, v, ok := m.ContainsGround(p); ok {
			return m.Marker.PatternAt(u, v)
		}
	}
	return ground
}

// renderFastReference is the FastGround renderer the optimized RenderInto
// must reproduce exactly: the original renderFastGround's lattice samples,
// taken every 4th pixel column of every 2nd pixel row and expanded
// bilinearly, with every sample taken by GroundTexture.At and the
// occluder queried at every pixel.
func renderFastReference(s *Scene, cam Camera) *Image {
	im := NewImage(cam.W, cam.H)
	h := cam.Pos.Z
	if h <= 0.01 {
		return im
	}
	cos, sin := math.Cos(cam.Yaw), math.Sin(cam.Yaw)
	cw, ch := float64(cam.W)/2, float64(cam.H)/2
	const strideX = 4
	nx := (cam.W-1)/strideX + 2
	rowLo, rowHi, rowMid := make([]float64, nx), make([]float64, nx), make([]float64, nx)
	gRow := make([]float64, cam.W)
	stepX := cos / cam.FocalPx * h
	stepY := sin / cam.FocalPx * h
	sampleRow := func(py int, dst []float64) {
		ly := (float64(py) + 0.5 - ch) / cam.FocalPx
		lx := (0.5 - cw) / cam.FocalPx
		gx := cam.Pos.X + (lx*cos-ly*sin)*h
		gy := cam.Pos.Y + (lx*sin+ly*cos)*h
		for j := 0; j < nx; j++ {
			dst[j] = s.Ground.At(gx, gy)
			gx += strideX * stepX
			gy += strideX * stepY
		}
	}
	sampleRow(0, rowLo)
	for py := 0; py < cam.H; py++ {
		if py%2 == 0 {
			if py > 0 {
				rowLo, rowHi = rowHi, rowLo
			}
			sampleRow(min(py+2, cam.H-1), rowHi)
		}
		src := rowLo
		if py%2 == 1 {
			for j := 0; j < nx; j++ {
				rowMid[j] = 0.5 * (rowLo[j] + rowHi[j])
			}
			src = rowMid
		}
		for j := 0; j+1 < nx && strideX*j < cam.W; j++ {
			at := strideX * j
			a := src[j]
			d := (src[j+1] - a) / strideX
			for o := 0; o < strideX && at+o < cam.W; o++ {
				gRow[at+o] = a + float64(o)*d
			}
		}
		ly := (float64(py) + 0.5 - ch) / cam.FocalPx
		lx := (0.5 - cw) / cam.FocalPx
		gx := cam.Pos.X + (lx*cos-ly*sin)*h
		gy := cam.Pos.Y + (lx*sin+ly*cos)*h
		for px := 0; px < cam.W; px++ {
			im.Pix[py*cam.W+px] = referencePixel(s, gx, gy, h, gRow[px])
			gx += stepX
			gy += stepY
		}
	}
	return im
}

// refScene builds a scene with overlapping rotated markers and a synthetic
// occluder band, exercising every per-pixel branch. Its OccluderFree is
// exact for the band and answers false for non-finite rectangles, so the
// tile cull runs too.
func refScene() *Scene {
	d := DefaultDictionary()
	return &Scene{
		Ground: GroundTexture{Seed: 99, Base: 0.45, Contrast: 0.3},
		Markers: []MarkerInstance{
			{Marker: d.Markers[0], Center: geom.V3(0, 0, 0), Size: 2, Yaw: 0.7},
			{Marker: d.Markers[1], Center: geom.V3(1.2, 0.4, 0), Size: 1.5, Yaw: 2.1},
			{Marker: d.Markers[2], Center: geom.V3(-4, 3, 0), Size: 2, Yaw: 5.5},
		},
		OccluderAt: func(x, y float64) (float64, float64, bool) {
			if x > 3 && x < 6 {
				return 0.3, 8, true // a roof band
			}
			if y < -5 {
				return 0.18, 0, true // water
			}
			return 0, 0, false
		},
		OccluderFree: func(x0, y0, x1, y1 float64) bool {
			return (x1 <= 3 || x0 >= 6) && y0 >= -5
		},
	}
}

// TestRenderOccluderSubstitutesAlbedo covers the occluder contract after
// the dead re-projection removal: a blocked pixel takes the occluder's
// flat albedo; an occluder above the camera does not block.
func TestRenderOccluderSubstitutesAlbedo(t *testing.T) {
	s := &Scene{
		Ground: GroundTexture{Seed: 1, Base: 0.9, Contrast: 0},
		OccluderAt: func(x, y float64) (float64, float64, bool) {
			return 0.3, 8, true // roof at 8m everywhere
		},
	}
	cam := DefaultCamera()
	cam.Pos = geom.V3(0, 0, 12)
	im := s.Render(cam)
	if v := im.At(cam.W/2, cam.H/2); v != 0.3 {
		t.Errorf("pixel over roof = %v, want occluder albedo 0.3", v)
	}
	// Camera below the occluder top: the roof is above, not blocking.
	cam.Pos = geom.V3(0, 0, 5)
	im = s.Render(cam)
	if v := im.At(cam.W/2, cam.H/2); v != 0.9 {
		t.Errorf("pixel under roof = %v, want ground albedo 0.9", v)
	}
}

// TestRenderIntoAllocFree asserts the steady-state render path allocates
// nothing once its buffers are warm. The lattice tables are sized per
// frame, so the frames cycle through altitudes after one warm-up pass, in
// both ground modes.
func TestRenderIntoAllocFree(t *testing.T) {
	s := refScene()
	var cams []Camera
	for i, z := range []float64{0.5, 3, 12, 30, 60} {
		cam := DefaultCamera()
		cam.Pos = geom.V3(2, -3, z)
		cam.Yaw = 0.9 * float64(i)
		cams = append(cams, cam)
	}
	im := NewImage(cams[0].W, cams[0].H)
	for _, fast := range []bool{false, true} {
		s.FastGround = fast
		for _, cam := range cams {
			s.RenderInto(cam, im) // grows every buffer to the largest frame
		}
		if n := testing.AllocsPerRun(20, func() {
			for _, cam := range cams {
				s.RenderInto(cam, im)
			}
		}); n > 0 {
			t.Errorf("fast=%v: RenderInto allocates %.1f per altitude cycle in steady state, want 0", fast, n)
		}
	}
}

// TestApplyReusingMatchesApply proves the scratch-buffer condition path is
// pixel-identical to the allocating one, motion blur included.
func TestApplyReusingMatchesApply(t *testing.T) {
	cond := Conditions{
		Fog: 0.4, Glare: 0.6, GlareU: 0.4, GlareV: 0.6,
		Shadow: 0.5, ShadowPos: 0.3, MotionBlur: 5,
		Brightness: -0.1, Contrast: 0.8, Occlusion: 0.8, OccU: 0.5, OccV: 0.5, OccR: 0.1,
		RainNoise: 0.05,
	}
	base := NewImage(64, 64)
	for i := range base.Pix {
		base.Pix[i] = float64(i%97) / 97
	}
	a := base.Clone()
	b := base.Clone()
	scratch := NewImage(64, 64)
	cond.Apply(a, 12, rand.New(rand.NewSource(9)))
	cond.ApplyReusing(b, 12, rand.New(rand.NewSource(9)), scratch)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("pixel %d: Apply %v != ApplyReusing %v", i, a.Pix[i], b.Pix[i])
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		cond.ApplyReusing(b, 12, nil, scratch)
	}); n > 0 {
		t.Errorf("ApplyReusing allocates %.1f/op with scratch, want 0", n)
	}
}
