package vision

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestOccluderFrameCull pins the tile-level occluder cull: the renderer
// asks OccluderFree once per 16x16-pixel tile, with a rectangle holding
// the ground point of every pixel in the tile, and pixels in a free tile
// skip the per-pixel OccluderAt query with bit-identical output. A frame
// whose tiles are all free makes no per-pixel query; with an occluder
// overlapping one tile, the per-pixel queries land only in that tile; a
// declined cull leaves the per-pixel path unchanged.
func TestOccluderFrameCull(t *testing.T) {
	for _, fast := range []bool{false, true} {
		s, cam := testScene()
		s.FastGround = fast
		cam.Yaw = 0.3 // exercise the rotated-footprint corner bound
		tilesX := cam.W / cullTile
		occCalls := 0
		s.OccluderAt = func(x, y float64) (float64, float64, bool) {
			occCalls++
			return 0, 0, false // clear everywhere: culling must not change pixels
		}
		baseline := s.Render(cam)
		if occCalls == 0 {
			t.Fatal("baseline render never queried the occluder")
		}

		var rects [][4]float64
		s.OccluderFree = func(x0, y0, x1, y1 float64) bool {
			rects = append(rects, [4]float64{x0, y0, x1, y1})
			return true
		}
		occCalls = 0
		culled := s.Render(cam)
		if want := tilesX * (cam.H / cullTile); len(rects) != want {
			t.Fatalf("fast=%v: OccluderFree asked %d times, want once per tile (%d)", fast, len(rects), want)
		}
		if occCalls != 0 {
			t.Fatalf("fast=%v: culled render still made %d per-pixel queries", fast, occCalls)
		}
		samePixels(t, fmt.Sprintf("fast=%v all tiles free", fast), culled, baseline)
		// Each tile's rectangle (asked in raster order) must hold the ground
		// point of every pixel center in the tile.
		for py := 0; py < cam.H; py++ {
			for px := 0; px < cam.W; px++ {
				g, _ := cam.PixelToGround(float64(px)+0.5, float64(py)+0.5, 0)
				if r := rects[py/cullTile*tilesX+px/cullTile]; !inRect(g.X, g.Y, r) {
					t.Fatalf("fast=%v: pixel (%d,%d) ground point %v outside its tile's rect %v",
						fast, px, py, g, r)
				}
			}
		}

		// A 20 cm roof patch at the middle of tile (3, 2): the only tile
		// whose rectangle it overlaps.
		c, _ := cam.PixelToGround(3*cullTile+cullTile/2, 2*cullTile+cullTile/2, 0)
		const r = 0.1
		roof := [4]float64{c.X - r, c.Y - r, c.X + r, c.Y + r}
		var queried []geom.Vec2
		s.OccluderAt = func(x, y float64) (float64, float64, bool) {
			queried = append(queried, geom.V2(x, y))
			if inRect(x, y, roof) {
				return 0.2, 5, true
			}
			return 0, 0, false
		}
		s.OccluderFree = nil
		unculled := s.Render(cam)
		var held [][4]float64
		s.OccluderFree = func(x0, y0, x1, y1 float64) bool {
			if x1 < roof[0] || x0 > roof[2] || y1 < roof[1] || y0 > roof[3] {
				return true
			}
			held = append(held, [4]float64{x0, y0, x1, y1})
			return false
		}
		queried = queried[:0]
		culledOne := s.Render(cam)
		if len(held) != 1 {
			t.Fatalf("fast=%v: the roof patch overlaps %d tiles, want 1", fast, len(held))
		}
		if len(queried) != cullTile*cullTile {
			t.Fatalf("fast=%v: %d per-pixel queries, want one per pixel of the overlapping tile (%d)",
				fast, len(queried), cullTile*cullTile)
		}
		for _, q := range queried {
			if !inRect(q.X, q.Y, held[0]) {
				t.Fatalf("fast=%v: per-pixel query at %v outside the overlapping tile's rect %v", fast, q, held[0])
			}
		}
		samePixels(t, fmt.Sprintf("fast=%v one tile held", fast), culledOne, unculled)
		roofPixels := 0
		for _, v := range culledOne.Pix {
			if v == 0.2 {
				roofPixels++
			}
		}
		if roofPixels == 0 {
			t.Fatalf("fast=%v: the roof patch covers no pixel", fast)
		}

		// A declined cull keeps the per-pixel occluder in force.
		s.OccluderAt = func(x, y float64) (float64, float64, bool) { return 0.2, 5, true }
		s.OccluderFree = func(x0, y0, x1, y1 float64) bool { return false }
		blocked := s.Render(cam)
		for i, v := range blocked.Pix {
			if v != 0.2 {
				t.Fatalf("fast=%v: pixel %d = %v, want occluder albedo after declined cull", fast, i, v)
			}
		}
	}
}

// inRect reports whether (x, y) lies in the rectangle {x0, y0, x1, y1}.
func inRect(x, y float64, r [4]float64) bool {
	return x >= r[0] && x <= r[2] && y >= r[1] && y <= r[3]
}

// samePixels fails the test at the first pixel that differs.
func samePixels(t *testing.T, what string, got, want *Image) {
	t.Helper()
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%s: pixel %d = %v, want %v", what, i, got.Pix[i], want.Pix[i])
		}
	}
}

// TestBoxMeanInteriorMatchesBoxMean pins the clamp-free integral query the
// adaptive threshold uses for interior pixels: bit-identical to BoxMean on
// every in-bounds rectangle.
func TestBoxMeanInteriorMatchesBoxMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := NewImage(37, 23)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	ig := NewIntegral(im)
	for trial := 0; trial < 500; trial++ {
		x0, y0 := rng.Intn(im.W), rng.Intn(im.H)
		x1 := x0 + rng.Intn(im.W-x0)
		y1 := y0 + rng.Intn(im.H-y0)
		a := ig.BoxMean(x0, y0, x1, y1)
		b := ig.BoxMeanInterior(x0, y0, x1, y1)
		if a != b {
			t.Fatalf("BoxMeanInterior(%d,%d,%d,%d) = %v, BoxMean = %v", x0, y0, x1, y1, b, a)
		}
	}
}

// TestContainsGroundRotMatchesContainsGround pins the hoisted-rotation
// containment test against the trig-per-call original.
func TestContainsGroundRotMatchesContainsGround(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := DefaultDictionary()
	for trial := 0; trial < 200; trial++ {
		mi := MarkerInstance{
			Marker: d.Markers[trial%len(d.Markers)],
			Center: geom.V3(rng.Float64()*20-10, rng.Float64()*20-10, 0),
			Size:   0.5 + rng.Float64()*3,
			Yaw:    rng.Float64()*12 - 6,
		}
		cos, sin := math.Cos(-mi.Yaw), math.Sin(-mi.Yaw)
		p := geom.V3(mi.Center.X+rng.Float64()*6-3, mi.Center.Y+rng.Float64()*6-3, 0)
		u1, v1, ok1 := mi.ContainsGround(p)
		u2, v2, ok2 := mi.ContainsGroundRot(p, cos, sin)
		if u1 != u2 || v1 != v2 || ok1 != ok2 {
			t.Fatalf("trial %d: ContainsGround=(%v,%v,%v) Rot=(%v,%v,%v)",
				trial, u1, v1, ok1, u2, v2, ok2)
		}
	}
}
