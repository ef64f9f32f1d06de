package vision

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func testScene() (*Scene, Camera) {
	d := DefaultDictionary()
	s := &Scene{
		Ground: GroundTexture{Seed: 5, Base: 0.45, Contrast: 0.25},
		Markers: []MarkerInstance{{
			Marker: d.Markers[0],
			Center: geom.V3(0, 0, 0),
			Size:   2,
		}},
	}
	cam := DefaultCamera()
	cam.Pos = geom.V3(0, 0, 10)
	return s, cam
}

func TestRenderContainsMarker(t *testing.T) {
	s, cam := testScene()
	im := s.Render(cam)
	// The marker pad center area: border black ring around center bits.
	// The pad spans 2m at 10m altitude -> 28px. Quiet zone is white (1.0),
	// brighter than mean terrain.
	center := im.Region(58, 58, 70, 70)
	_ = center
	// Check a quiet-zone pixel: offset ~0.9m from center -> 12.6px.
	q, ok := cam.ProjectGround(geom.V3(0.93, 0, 0))
	if !ok {
		t.Fatal("quiet zone should project")
	}
	v := im.At(int(q.X), int(q.Y))
	if v < 0.9 {
		t.Errorf("quiet zone pixel = %v, want white", v)
	}
	// Border pixel: offset ~0.75m.
	b, _ := cam.ProjectGround(geom.V3(0.74, 0, 0))
	if v := im.At(int(b.X), int(b.Y)); v > 0.2 {
		t.Errorf("border pixel = %v, want black", v)
	}
}

func TestRenderDeterministic(t *testing.T) {
	s, cam := testScene()
	a := s.Render(cam)
	b := s.Render(cam)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("render not deterministic")
		}
	}
}

func TestRenderOccluder(t *testing.T) {
	s, cam := testScene()
	s.OccluderAt = func(x, y float64) (float64, float64, bool) {
		return 0.2, 5, true // roof at 5m everywhere
	}
	im := s.Render(cam)
	for i, v := range im.Pix {
		if v != 0.2 {
			t.Fatalf("pixel %d = %v, want occluder albedo", i, v)
		}
	}
}

func TestRenderBelowGround(t *testing.T) {
	s, cam := testScene()
	cam.Pos = geom.V3(0, 0, 0)
	im := s.Render(cam)
	if im.Mean() != 0 {
		t.Error("render at ground level should be black")
	}
}

func TestConditionsZeroIsNoop(t *testing.T) {
	s, cam := testScene()
	im := s.Render(cam)
	orig := im.Clone()
	var c Conditions
	c.Apply(im, 10, rand.New(rand.NewSource(1)))
	for i := range im.Pix {
		if im.Pix[i] != orig.Pix[i] {
			t.Fatal("zero conditions modified image")
		}
	}
}

func TestFogWashesOutContrast(t *testing.T) {
	s, cam := testScene()
	im := s.Render(cam)
	_, s0 := im.MeanStd()
	c := Conditions{Fog: 0.8}
	c.Apply(im, 20, nil)
	_, s1 := im.MeanStd()
	if s1 >= s0*0.6 {
		t.Errorf("fog did not reduce contrast: %v -> %v", s0, s1)
	}
}

func TestFogScalesWithAltitude(t *testing.T) {
	s, cam := testScene()
	imLow := s.Render(cam)
	imHigh := imLow.Clone()
	c := Conditions{Fog: 0.6}
	c.Apply(imLow, 5, nil)
	c.Apply(imHigh, 40, nil)
	_, sLow := imLow.MeanStd()
	_, sHigh := imHigh.MeanStd()
	if sHigh >= sLow {
		t.Errorf("fog should be worse at altitude: low std %v, high std %v", sLow, sHigh)
	}
}

func TestGlareSaturates(t *testing.T) {
	s, cam := testScene()
	im := s.Render(cam)
	c := Conditions{Glare: 1, GlareU: 0.5, GlareV: 0.5}
	c.Apply(im, 10, nil)
	// Center pixels should be driven to near-white.
	if v := im.Region(60, 60, 68, 68); v < 0.95 {
		t.Errorf("glare center = %v, want saturated", v)
	}
}

func TestShadowDarkensBand(t *testing.T) {
	im := NewImage(64, 64)
	im.Fill(0.8)
	c := Conditions{Shadow: 0.7, ShadowPos: 0.5}
	c.Apply(im, 10, nil)
	bandMean := im.Region(0, 30, 63, 34)
	edgeMean := im.Region(0, 0, 63, 4)
	if bandMean >= edgeMean-0.2 {
		t.Errorf("shadow band %v not darker than edge %v", bandMean, edgeMean)
	}
}

func TestRainNoiseDeterministicWithSeed(t *testing.T) {
	base := NewImage(32, 32)
	base.Fill(0.5)
	a := base.Clone()
	b := base.Clone()
	c := Conditions{RainNoise: 0.1}
	c.Apply(a, 10, rand.New(rand.NewSource(77)))
	c.Apply(b, 10, rand.New(rand.NewSource(77)))
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("seeded rain noise not reproducible")
		}
	}
	// And it should actually add noise.
	_, std := a.MeanStd()
	if std < 0.01 {
		t.Errorf("rain noise std = %v, too small", std)
	}
}

func TestMotionBlurSmears(t *testing.T) {
	im := NewImage(32, 32)
	im.Set(16, 16, 1)
	c := Conditions{MotionBlur: 4}
	c.Apply(im, 10, nil)
	// Energy spread to the right neighbors (blur looks back along -x).
	if im.At(18, 16) <= 0 {
		t.Error("blur did not smear along x")
	}
	if im.At(16, 16) >= 1 {
		t.Error("blur did not attenuate peak")
	}
}

func TestBrightnessContrast(t *testing.T) {
	im := NewImage(8, 8)
	im.Fill(0.5)
	c := Conditions{Brightness: 0.2}
	c.Apply(im, 10, nil)
	if math.Abs(im.Mean()-0.7) > 1e-9 {
		t.Errorf("brightness mean = %v", im.Mean())
	}
	im2 := NewImage(8, 8)
	im2.Fill(0.9)
	c2 := Conditions{Contrast: 0.5}
	c2.Apply(im2, 10, nil)
	if math.Abs(im2.Mean()-0.7) > 1e-9 {
		t.Errorf("contrast mean = %v, want 0.7", im2.Mean())
	}
}

func TestExpFastReasonable(t *testing.T) {
	for _, x := range []float64{0, -0.5, -1, -2, -4, -8} {
		got := expFast(x)
		want := math.Exp(x)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("expFast(%v) = %v, want ~%v", x, got, want)
		}
	}
	if expFast(-20) != 0 {
		t.Error("expFast far tail should be 0")
	}
	if expFast(1) != 0 {
		t.Error("expFast positive arg should be 0")
	}
}
