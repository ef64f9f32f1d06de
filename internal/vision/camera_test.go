package vision

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestProjectGroundCenter(t *testing.T) {
	cam := DefaultCamera()
	cam.Pos = geom.V3(5, 5, 10)
	px, ok := cam.ProjectGround(geom.V3(5, 5, 0))
	if !ok {
		t.Fatal("nadir point should project")
	}
	if math.Abs(px.X-64) > 1e-9 || math.Abs(px.Y-64) > 1e-9 {
		t.Errorf("nadir projects to %v, want image center", px)
	}
}

func TestProjectPixelRoundTrip(t *testing.T) {
	cam := DefaultCamera()
	cam.Pos = geom.V3(3, -2, 15)
	cam.Yaw = 0.7
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		// Points within the footprint.
		fp := cam.GroundFootprint(15) * 0.45
		p := geom.V3(cam.Pos.X+(rng.Float64()-0.5)*fp, cam.Pos.Y+(rng.Float64()-0.5)*fp, 0)
		px, ok := cam.ProjectGround(p)
		if !ok {
			continue
		}
		back, ok := cam.PixelToGround(px.X, px.Y, 0)
		if !ok {
			t.Fatal("inverse projection failed")
		}
		if !back.ApproxEq(p, 1e-9) {
			t.Fatalf("roundtrip %v -> %v -> %v", p, px, back)
		}
	}
}

func TestProjectBelowGround(t *testing.T) {
	cam := DefaultCamera()
	cam.Pos = geom.V3(0, 0, -1)
	if _, ok := cam.ProjectGround(geom.V3(0, 0, 0)); ok {
		t.Error("camera below ground should not project")
	}
	if _, ok := cam.PixelToGround(64, 64, 0); ok {
		t.Error("inverse projection below ground should fail")
	}
}

func TestProjectOutsideImage(t *testing.T) {
	cam := DefaultCamera()
	cam.Pos = geom.V3(0, 0, 10)
	// A point far outside the footprint.
	if _, ok := cam.ProjectGround(geom.V3(100, 0, 0)); ok {
		t.Error("far point should fall outside the image")
	}
}

func TestApparentSize(t *testing.T) {
	cam := DefaultCamera()
	cam.Pos = geom.V3(0, 0, 10)
	got := cam.ApparentSizePx(2, 0)
	want := 140.0 * 2 / 10
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ApparentSizePx = %v, want %v", got, want)
	}
	// Shrinks with altitude: the paper's "high altitude flight" failure.
	cam.Pos.Z = 25
	if cam.ApparentSizePx(2, 0) >= got {
		t.Error("apparent size should shrink with altitude")
	}
}

func TestGroundFootprint(t *testing.T) {
	cam := DefaultCamera()
	if cam.GroundFootprint(0) != 0 {
		t.Error("zero altitude footprint")
	}
	fp := cam.GroundFootprint(12)
	want := 128.0 / 140.0 * 12
	if math.Abs(fp-want) > 1e-9 {
		t.Errorf("footprint = %v, want %v", fp, want)
	}
}

func TestGroundTextureRangeAndDeterminism(t *testing.T) {
	g := GroundTexture{Seed: 42, Base: 0.45, Contrast: 0.3}
	for i := 0; i < 500; i++ {
		x := float64(i)*1.7 - 300
		y := float64(i)*0.9 - 100
		v := g.At(x, y)
		if v < 0 || v > 1 {
			t.Fatalf("texture out of range at (%v,%v): %v", x, y, v)
		}
		if v != g.At(x, y) {
			t.Fatal("texture not deterministic")
		}
	}
	// Different seeds differ somewhere.
	g2 := GroundTexture{Seed: 43, Base: 0.45, Contrast: 0.3}
	same := true
	for i := 0; i < 50 && same; i++ {
		if g.At(float64(i), 0) != g2.At(float64(i), 0) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical texture")
	}
}

func TestGroundTextureSmooth(t *testing.T) {
	g := GroundTexture{Seed: 7, Base: 0.5, Contrast: 0.4}
	// Adjacent samples should not jump wildly (value noise is continuous).
	prev := g.At(0, 0)
	for i := 1; i < 200; i++ {
		v := g.At(float64(i)*0.05, 0)
		if math.Abs(v-prev) > 0.2 {
			t.Fatalf("texture discontinuity at step %d: %v -> %v", i, prev, v)
		}
		prev = v
	}
}
