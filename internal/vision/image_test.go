package vision

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestImageAtSetBounds(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(1, 2, 0.5)
	if got := im.At(1, 2); got != 0.5 {
		t.Errorf("At = %v", got)
	}
	// Out-of-bounds reads/writes must be safe no-ops.
	im.Set(-1, 0, 1)
	im.Set(0, -1, 1)
	im.Set(4, 0, 1)
	im.Set(0, 3, 1)
	if got := im.At(-1, 0); got != 0 {
		t.Errorf("oob At = %v", got)
	}
	if got := im.At(10, 10); got != 0 {
		t.Errorf("oob At = %v", got)
	}
}

func TestImageSetClamps(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, 2.5)
	if got := im.At(0, 0); got != 1 {
		t.Errorf("over-range Set = %v, want 1", got)
	}
	im.Set(0, 0, -3)
	if got := im.At(0, 0); got != 0 {
		t.Errorf("under-range Set = %v, want 0", got)
	}
}

func TestImageFillMean(t *testing.T) {
	im := NewImage(8, 8)
	im.Fill(0.25)
	if got := im.Mean(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	m, s := im.MeanStd()
	if m != 0.25 || s != 0 {
		t.Errorf("MeanStd = %v, %v", m, s)
	}
}

func TestImageClone(t *testing.T) {
	im := NewImage(3, 3)
	im.Set(1, 1, 0.7)
	c := im.Clone()
	c.Set(1, 1, 0.1)
	if im.At(1, 1) != 0.7 {
		t.Error("clone aliases original")
	}
}

func TestBilinear(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, 0)
	im.Set(1, 0, 1)
	im.Set(0, 1, 0)
	im.Set(1, 1, 1)
	if got := im.Bilinear(0.5, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Bilinear mid = %v", got)
	}
	if got := im.Bilinear(0, 0); got != 0 {
		t.Errorf("Bilinear corner = %v", got)
	}
	// Clamped outside.
	if got := im.Bilinear(-5, 0); got != 0 {
		t.Errorf("Bilinear clamp = %v", got)
	}
	if got := im.Bilinear(5, 5); got != 1 {
		t.Errorf("Bilinear clamp hi = %v", got)
	}
}

func TestIntegralMatchesRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := NewImage(17, 13)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	ig := NewIntegral(im)
	f := func(a, b, c, d uint8) bool {
		x0 := int(a) % im.W
		x1 := int(b) % im.W
		y0 := int(c) % im.H
		y1 := int(d) % im.H
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		want := im.Region(x0, y0, x1, y1)
		got := ig.BoxMean(x0, y0, x1, y1)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntegralClipsBounds(t *testing.T) {
	im := NewImage(4, 4)
	im.Fill(1)
	ig := NewIntegral(im)
	if got := ig.BoxMean(-5, -5, 100, 100); math.Abs(got-1) > 1e-12 {
		t.Errorf("clipped BoxMean = %v", got)
	}
}

// TestIntegralRowsMatchBoxMean pins the table rows the adaptive
// threshold reads: the box sum over rows y0 and y1+1, divided by the box
// area, is BoxMean bit for bit on every rectangle of an image.
func TestIntegralRowsMatchBoxMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := NewImage(13, 9)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	ig := NewIntegral(im)
	for y0 := 0; y0 < im.H; y0++ {
		for y1 := y0; y1 < im.H; y1++ {
			top, bot := ig.Row(y0), ig.Row(y1+1)
			for x0 := 0; x0 < im.W; x0++ {
				for x1 := x0; x1 < im.W; x1++ {
					s := bot[x1+1] - top[x1+1] - bot[x0] + top[x0]
					got := s / float64((x1-x0+1)*(y1-y0+1))
					if want := ig.BoxMean(x0, y0, x1, y1); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("rows %d,%d columns %d..%d: %v, BoxMean %v", y0, y1+1, x0, x1, got, want)
					}
				}
			}
		}
	}
}

func TestNewImageNegativeSize(t *testing.T) {
	im := NewImage(-3, -3)
	if im.W != 0 || im.H != 0 || len(im.Pix) != 0 {
		t.Errorf("negative size not normalized: %+v", im)
	}
	if im.Mean() != 0 {
		t.Error("empty mean")
	}
}

func TestWritePGM(t *testing.T) {
	im := NewImage(3, 2)
	im.Set(0, 0, 0)
	im.Set(1, 0, 0.5)
	im.Set(2, 0, 1)
	var b bytes.Buffer
	if err := im.WritePGM(&b); err != nil {
		t.Fatal(err)
	}
	out := b.Bytes()
	wantHeader := "P5\n3 2\n255\n"
	if !bytes.HasPrefix(out, []byte(wantHeader)) {
		t.Fatalf("header = %q", out[:len(wantHeader)])
	}
	pix := out[len(wantHeader):]
	if len(pix) != 6 {
		t.Fatalf("pixel count %d", len(pix))
	}
	if pix[0] != 0 || pix[1] != 128 || pix[2] != 255 {
		t.Errorf("pixels = %v", pix[:3])
	}
}

func TestAddNoise(t *testing.T) {
	im := NewImage(16, 16)
	im.Fill(0.5)
	im.AddNoise(0, rand.New(rand.NewSource(1)))
	for _, v := range im.Pix {
		if v != 0.5 {
			t.Fatal("sigma 0 modified the image")
		}
	}
	im.AddNoise(0.3, rand.New(rand.NewSource(1)))
	changed := 0
	for _, v := range im.Pix {
		if v != 0.5 {
			changed++
		}
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v escaped [0,1]", v)
		}
	}
	if changed < len(im.Pix)/2 {
		t.Errorf("only %d/%d pixels perturbed", changed, len(im.Pix))
	}
}
