package detect

import (
	"math"
	"testing"

	"repro/internal/vision"
)

func TestAdaptiveThreshold(t *testing.T) {
	im := vision.NewImage(32, 32)
	im.Fill(0.8)
	// A dark square.
	for y := 10; y < 20; y++ {
		for x := 10; x < 20; x++ {
			im.Set(x, y, 0.1)
		}
	}
	mask := adaptiveThreshold(im, 9, 0.08, &detScratch{})
	if !mask[15*32+15] {
		t.Error("dark center not in mask")
	}
	if mask[2*32+2] {
		t.Error("bright corner in mask")
	}
}

func TestAdaptiveThresholdLowContrast(t *testing.T) {
	im := vision.NewImage(32, 32)
	im.Fill(0.5)
	for y := 10; y < 20; y++ {
		for x := 10; x < 20; x++ {
			im.Set(x, y, 0.46) // below mean, but within the offset margin
		}
	}
	mask := adaptiveThreshold(im, 9, 0.08, &detScratch{})
	for i, m := range mask {
		if m {
			t.Fatalf("low-contrast pixel %d thresholded", i)
		}
	}
}

func TestFindComponentsBasic(t *testing.T) {
	w, h := 40, 40
	mask := make([]bool, w*h)
	// One 8x8 block and one isolated pixel (below min area).
	for y := 5; y < 13; y++ {
		for x := 5; x < 13; x++ {
			mask[y*w+x] = true
		}
	}
	mask[30*w+30] = true
	comps := findComponents(mask, w, h, &detScratch{})
	if len(comps) != 1 {
		t.Fatalf("got %d components, want 1", len(comps))
	}
	c := comps[0]
	if c.area != 64 {
		t.Errorf("area = %d", c.area)
	}
	if math.Abs(c.cx-8.5) > 1e-9 || math.Abs(c.cy-8.5) > 1e-9 {
		t.Errorf("centroid = (%v,%v)", c.cx, c.cy)
	}
	if c.bboxW() != 8 || c.bboxH() != 8 {
		t.Errorf("bbox %dx%d", c.bboxW(), c.bboxH())
	}
	if s := c.squareness(); s < 0.85 {
		t.Errorf("squareness = %v", s)
	}
	if f := c.fillRatio(); f < 0.6 {
		t.Errorf("fill = %v", f)
	}
}

func TestFindComponentsSeparates(t *testing.T) {
	w, h := 64, 64
	mask := make([]bool, w*h)
	put := func(x0, y0, s int) {
		for y := y0; y < y0+s; y++ {
			for x := x0; x < x0+s; x++ {
				mask[y*w+x] = true
			}
		}
	}
	put(2, 2, 7)
	put(30, 30, 9)
	comps := findComponents(mask, w, h, &detScratch{})
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
}

func TestFindComponentsRejectsHuge(t *testing.T) {
	w, h := 32, 32
	mask := make([]bool, w*h)
	for i := range mask {
		mask[i] = true
	}
	if comps := findComponents(mask, w, h, &detScratch{}); len(comps) != 0 {
		t.Errorf("full-frame blob kept: %d", len(comps))
	}
}

func TestFindComponentsEmpty(t *testing.T) {
	if comps := findComponents(nil, 0, 0, &detScratch{}); comps != nil {
		t.Error("empty input should return nil")
	}
}

func TestMinAreaRectRotatedSquare(t *testing.T) {
	w, h := 64, 64
	mask := make([]bool, w*h)
	// Rasterize a 14x14 square rotated 30 degrees about (32,32).
	theta := math.Pi / 6
	cos, sin := math.Cos(theta), math.Sin(theta)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx, dy := float64(x)-32, float64(y)-32
			u := dx*cos + dy*sin
			v := -dx*sin + dy*cos
			if math.Abs(u) <= 7 && math.Abs(v) <= 7 {
				mask[y*w+x] = true
			}
		}
	}
	comps := findComponents(mask, w, h, &detScratch{})
	if len(comps) != 1 {
		t.Fatalf("components = %d", len(comps))
	}
	c := comps[0]
	if c.squareness() < 0.85 {
		t.Errorf("rotated square squareness = %v", c.squareness())
	}
	if c.width < 13 || c.width > 17 {
		t.Errorf("side = %v, want ~14-15", c.width)
	}
	// Orientation recovered mod 90° within the 5° sweep resolution.
	got := math.Mod(c.angle, math.Pi/2)
	want := math.Pi / 6
	diff := math.Abs(got - want)
	if diff > math.Pi/4 {
		diff = math.Pi/2 - diff
	}
	if diff > 0.1 {
		t.Errorf("angle = %v, want ~%v", got, want)
	}
}

// TestProposalsAllocFree pins the allocation-free proposal stage: once a
// pass over a worldgen frame sweep has grown the scratch, thresholding
// and labelling every frame again allocates nothing, at the learned and
// at the classical offset; and both detectors allocate nothing on the
// sweep's frames that hold proposals but no marker.
func TestProposalsAllocFree(t *testing.T) {
	var frames []*vision.Image
	for _, m := range []int{1, 4, 8} {
		frames = append(frames, worldFlight(t, m)...)
	}
	for _, offset := range []float64{0.05, 0.08} {
		var s detScratch
		comps := 0
		allocs := testing.AllocsPerRun(3, func() {
			comps = 0
			for _, im := range frames {
				mask := adaptiveThreshold(im, 9, offset, &s)
				comps += len(findComponents(mask, im.W, im.H, &s))
			}
		})
		if allocs != 0 {
			t.Errorf("offset %v: %v allocs per sweep, want 0", offset, allocs)
		}
		if comps < 200 {
			t.Errorf("offset %v: %d components over the sweep, want at least 200", offset, comps)
		}
	}

	dict := vision.DefaultDictionary()
	for _, d := range []Detector{NewLearnedV3(dict), NewClassical(dict)} {
		var empty []*vision.Image
		var s detScratch
		proposals := 0
		for _, im := range frames {
			if len(d.Detect(im)) == 0 {
				empty = append(empty, im)
				proposals += len(findComponents(adaptiveThreshold(im, 9, 0.05, &s), im.W, im.H, &s))
			}
		}
		if len(empty) < 20 || proposals < 100 {
			t.Fatalf("%s: %d frames without a detection holding %d proposals, want 20 and 100", d.Name(), len(empty), proposals)
		}
		allocs := testing.AllocsPerRun(3, func() {
			for _, im := range empty {
				d.Detect(im)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs over %d frames without a detection, want 0", d.Name(), allocs, len(empty))
		}
	}
}
