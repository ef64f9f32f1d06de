package vision_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/vision"
	"repro/internal/worldgen"
)

// worldScene wraps a worldgen map as a render scene, the way the colour
// camera does but over the whole world, with the world's exact occluder
// query and its rectangle cull.
func worldScene(sc *worldgen.Scenario) *vision.Scene {
	w := sc.World
	return &vision.Scene{
		Ground:       vision.GroundTexture{Seed: w.GroundSeed, Base: w.GroundBase, Contrast: w.GroundContrast},
		Markers:      w.Markers,
		OccluderAt:   w.OccluderAt,
		OccluderFree: w.OccluderFreeRect,
	}
}

// worldCameras returns the poses flown over one map: the camera looks at
// the landing marker, the map's buildings, trees and water and at random
// ground (the maps span -90..90 m, so many footprints lie on negative
// coordinates), from 0.02 m to 60 m, with the yaw stepping through all
// four quadrants.
func worldCameras(sc *worldgen.Scenario, rng *rand.Rand) []vision.Camera {
	w := sc.World
	alts := []float64{0.02, 0.3, 1, 2, 4, 7, 10, 14, 19, 25, 32, 40, 50, 60}
	var cams []vision.Camera
	for k := 0; k < 24; k++ {
		target := geom.V3((rng.Float64()-0.5)*180, (rng.Float64()-0.5)*180, 0)
		switch {
		case k%5 == 0:
			target = sc.TrueMarker
		case k%5 == 1 && len(w.Buildings) > 0:
			target = w.Buildings[rng.Intn(len(w.Buildings))].Center()
		case k%5 == 2 && len(w.Trees) > 0:
			tr := w.Trees[rng.Intn(len(w.Trees))]
			target = geom.V3(tr.Center.X, tr.Center.Y, 0)
		case k%5 == 3 && len(w.Water) > 0:
			target = w.Water[rng.Intn(len(w.Water))].Center()
		}
		cam := vision.DefaultCamera()
		z := alts[k%len(alts)]
		off := 0.4 * cam.GroundFootprint(z)
		cam.Pos = geom.V3(target.X+(rng.Float64()-0.5)*off, target.Y+(rng.Float64()-0.5)*off, z)
		cam.Yaw = float64(k%4)*math.Pi/2 + rng.Float64()*math.Pi/2
		if k%3 == 0 {
			cam.Yaw -= 2 * math.Pi // the same quadrant, reached from below
		}
		cams = append(cams, cam)
	}
	return cams
}

// footprintMax returns the largest ground coordinates the frame's corner
// pixels reach.
func footprintMax(cam vision.Camera) (maxX, maxY float64) {
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, u := range []float64{0, float64(cam.W)} {
		for _, v := range []float64{0, float64(cam.H)} {
			if g, ok := cam.PixelToGround(u, v, 0); ok {
				maxX, maxY = max(maxX, g.X), max(maxY, g.Y)
			}
		}
	}
	return maxX, maxY
}

// nonFinitePoses are altitudes where the ground coordinates overflow any
// lattice table: every sample must take the direct hash path.
var nonFinitePoses = []float64{math.NaN(), math.Inf(1), 1e300}

// sameBits fails the test at the first pixel whose bits differ.
func sameBits(t *testing.T, what string, got, want *vision.Image) {
	t.Helper()
	for i := range want.Pix {
		if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
			t.Fatalf("%s: pixel %d = %v (%#x), reference %v (%#x)", what, i,
				got.Pix[i], math.Float64bits(got.Pix[i]), want.Pix[i], math.Float64bits(want.Pix[i]))
		}
	}
}

// TestRenderIntoMatchesReference proves the noise lattice, the hoisted
// projection, the tile-level occluder cull, the marker-box prescreen and
// buffer reuse leave every pixel bit-identical to the exhaustive reference
// renderers, exact and FastGround alike. It flies 240 frames over the ten
// worldgen maps and 30 over the synthetic reference scene's overlapping
// markers, plus non-finite and huge poses over every map and the
// synthetic scene, and checks that the flight really covers
// roofs, canopies, water, negative-coordinate footprints and partly
// culled frames.
func TestRenderIntoMatchesReference(t *testing.T) {
	im := vision.NewImage(0, 0) // reused across frames and modes
	check := func(what string, s *vision.Scene, cam vision.Camera) {
		t.Helper()
		for _, fast := range []bool{false, true} {
			s.FastGround = fast
			s.RenderInto(cam, im)
			want := vision.RenderReference(s, cam)
			if fast {
				want = vision.RenderFastReference(s, cam)
			}
			sameBits(t, what+map[bool]string{false: " exact", true: " fast"}[fast], im, want)
		}
	}

	rng := rand.New(rand.NewSource(18))
	var frames, negative, partlyCulled int
	seen := map[float64]int{} // occluder albedo -> frames showing it
	for m := range worldgen.Maps() {
		sc, err := worldgen.Generate(m, (3*m)%worldgen.NumScenariosPerMap)
		if err != nil {
			t.Fatal(err)
		}
		s := worldScene(sc)
		var h float64
		shown := map[float64]bool{}
		s.OccluderAt = func(x, y float64) (float64, float64, bool) {
			alb, top, blocked := sc.World.OccluderAt(x, y)
			if blocked && top < h {
				shown[alb] = true
			}
			return alb, top, blocked
		}
		var free, held int
		s.OccluderFree = func(x0, y0, x1, y1 float64) bool {
			ok := sc.World.OccluderFreeRect(x0, y0, x1, y1)
			if ok {
				free++
			} else {
				held++
			}
			return ok
		}
		for _, cam := range worldCameras(sc, rng) {
			h = cam.Pos.Z
			clear(shown)
			free, held = 0, 0
			check("map "+sc.Map.Name, s, cam)
			for alb := range shown {
				seen[alb]++
			}
			if free > 0 && held > 0 {
				partlyCulled++
			}
			if maxX, maxY := footprintMax(cam); maxX < 0 && maxY < 0 {
				negative++
			}
			frames++
		}
		for _, z := range nonFinitePoses {
			cam := vision.DefaultCamera()
			cam.Pos = sc.TrueMarker.WithZ(z)
			cam.Yaw = 2.5
			h = z
			check("map "+sc.Map.Name+" non-finite pose", s, cam)
		}
	}
	// The synthetic scene's markers overlap near the origin (in the
	// worldgen maps only an occasional decoy pair does), so most of its
	// frames check that the first containing marker wins.
	s := vision.RefScene()
	refRng := rand.New(rand.NewSource(4))
	for frame := 0; frame < 30; frame++ {
		cam := vision.DefaultCamera()
		cam.Pos = geom.V3((refRng.Float64()-0.5)*16, (refRng.Float64()-0.5)*16, 2+refRng.Float64()*20)
		cam.Yaw = refRng.Float64() * 2 * math.Pi
		check(fmt.Sprintf("reference scene frame %d", frame), s, cam)
	}
	for _, z := range append([]float64{0.02, 6, 45}, nonFinitePoses...) {
		cam := vision.DefaultCamera()
		cam.Pos = geom.V3(-1.5, 0.5, z)
		cam.Yaw = -0.8
		check(fmt.Sprintf("reference scene z=%v", z), s, cam)
	}

	if frames < 200 {
		t.Errorf("flew %d worldgen frames, want at least 200", frames)
	}
	for _, c := range []struct {
		alb  float64
		name string
	}{{0.30, "roof"}, {0.15, "canopy"}, {0.18, "water"}} {
		if seen[c.alb] < 5 {
			t.Errorf("%d frames show %s pixels, want at least 5", seen[c.alb], c.name)
		}
	}
	if negative < 10 {
		t.Errorf("%d frames have a footprint wholly on negative coordinates, want at least 10", negative)
	}
	if partlyCulled < 10 {
		t.Errorf("%d frames mix culled and queried tiles, want at least 10", partlyCulled)
	}
}
