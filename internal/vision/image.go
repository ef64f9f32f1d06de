// Package vision provides the synthetic imaging substrate for the landing
// system reproduction: a grayscale image type, an ArUco-style fiducial
// dictionary, a downward pinhole camera model, ground-scene rendering, and
// the photometric degradations (fog, glare, shadow, rain, blur, noise) the
// paper's AirSim scenarios exercise.
//
// Images use float64 intensities in [0, 1]. All randomness is caller-seeded.
package vision

import (
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Image is a grayscale image with intensities in [0, 1].
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage returns a black image of the given size.
func NewImage(w, h int) *Image {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the intensity at (x, y); out-of-bounds reads return 0.
func (im *Image) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return 0
	}
	return im.Pix[y*im.W+x]
}

// Set writes the intensity at (x, y), clamped to [0,1]; out-of-bounds
// writes are ignored.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	im.Pix[y*im.W+x] = v
}

// Fill sets every pixel to v.
func (im *Image) Fill(v float64) {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	for i := range im.Pix {
		im.Pix[i] = v
	}
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// AddNoise perturbs every pixel with zero-mean Gaussian noise of the given
// sigma, clamped to [0, 1] — the sensor-degradation tap the fault-injection
// subsystem applies on top of the weather's photometric conditions. All
// randomness is caller-seeded, like the rest of the package.
func (im *Image) AddNoise(sigma float64, rng *rand.Rand) {
	if sigma <= 0 {
		return
	}
	for i, v := range im.Pix {
		v += rng.NormFloat64() * sigma
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		im.Pix[i] = v
	}
}

// Bilinear samples the image at fractional coordinates with bilinear
// interpolation; coordinates outside the image clamp to the border.
func (im *Image) Bilinear(x, y float64) float64 {
	if im.W == 0 || im.H == 0 {
		return 0
	}
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x > float64(im.W-1) {
		x = float64(im.W - 1)
	}
	if y > float64(im.H-1) {
		y = float64(im.H - 1)
	}
	x0, y0 := int(x), int(y)
	x1, y1 := x0+1, y0+1
	if x1 >= im.W {
		x1 = im.W - 1
	}
	if y1 >= im.H {
		y1 = im.H - 1
	}
	fx, fy := x-float64(x0), y-float64(y0)
	top := im.Pix[y0*im.W+x0]*(1-fx) + im.Pix[y0*im.W+x1]*fx
	bot := im.Pix[y1*im.W+x0]*(1-fx) + im.Pix[y1*im.W+x1]*fx
	return top*(1-fy) + bot*fy
}

// Mean returns the average intensity.
func (im *Image) Mean() float64 {
	if len(im.Pix) == 0 {
		return 0
	}
	var s float64
	for _, v := range im.Pix {
		s += v
	}
	return s / float64(len(im.Pix))
}

// MeanStd returns the mean and standard deviation of intensities.
func (im *Image) MeanStd() (mean, std float64) {
	n := float64(len(im.Pix))
	if n == 0 {
		return 0, 0
	}
	mean = im.Mean()
	var ss float64
	for _, v := range im.Pix {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / n)
}

// Region returns the mean intensity over the inclusive pixel rectangle,
// clipped to the image bounds.
func (im *Image) Region(x0, y0, x1, y1 int) float64 {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= im.W {
		x1 = im.W - 1
	}
	if y1 >= im.H {
		y1 = im.H - 1
	}
	var s float64
	var n int
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			s += im.Pix[y*im.W+x]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// String summarizes the image for debugging.
func (im *Image) String() string {
	m, s := im.MeanStd()
	return fmt.Sprintf("Image(%dx%d mean=%.3f std=%.3f)", im.W, im.H, m, s)
}

// Integral is a summed-area table enabling O(1) box sums, used by the
// adaptive-threshold stage of the classical detector.
type Integral struct {
	W, H int
	sum  []float64
}

// NewIntegral builds the summed-area table of im.
func NewIntegral(im *Image) *Integral {
	ig := &Integral{}
	ig.Compute(im)
	return ig
}

// Compute (re)builds the summed-area table of im in place, reusing the
// existing backing array when it is large enough — the per-frame path of
// the detectors' adaptive threshold allocates nothing in steady state.
func (ig *Integral) Compute(im *Image) {
	n := (im.W + 1) * (im.H + 1)
	if cap(ig.sum) < n {
		ig.sum = make([]float64, n)
	}
	ig.sum = ig.sum[:n]
	ig.W, ig.H = im.W, im.H
	stride := im.W + 1
	for i := 0; i < stride; i++ {
		ig.sum[i] = 0 // top border row; interior rows are fully rewritten
	}
	for y := 0; y < im.H; y++ {
		ig.sum[(y+1)*stride] = 0 // left border column
		var row float64
		for x := 0; x < im.W; x++ {
			row += im.Pix[y*im.W+x]
			ig.sum[(y+1)*stride+(x+1)] = ig.sum[y*stride+(x+1)] + row
		}
	}
}

// BoxMean returns the mean intensity over the inclusive rectangle
// [x0,x1]×[y0,y1], clipped to bounds.
func (ig *Integral) BoxMean(x0, y0, x1, y1 int) float64 {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= ig.W {
		x1 = ig.W - 1
	}
	if y1 >= ig.H {
		y1 = ig.H - 1
	}
	if x0 > x1 || y0 > y1 {
		return 0
	}
	stride := ig.W + 1
	s := ig.sum[(y1+1)*stride+(x1+1)] - ig.sum[y0*stride+(x1+1)] -
		ig.sum[(y1+1)*stride+x0] + ig.sum[y0*stride+x0]
	return s / float64((x1-x0+1)*(y1-y0+1))
}

// BoxMeanInterior is BoxMean for rectangles already known to lie fully
// inside the table (0 <= x0 <= x1 < W, 0 <= y0 <= y1 < H): it skips the
// clamping, and the sum and division are operand-for-operand the same as
// BoxMean's, so both methods return bit-identical values on in-bounds
// rectangles. The adaptive-threshold stage uses it for the pixels whose
// window never crosses the border — the bulk of every frame.
func (ig *Integral) BoxMeanInterior(x0, y0, x1, y1 int) float64 {
	stride := ig.W + 1
	s := ig.sum[(y1+1)*stride+(x1+1)] - ig.sum[y0*stride+(x1+1)] -
		ig.sum[(y1+1)*stride+x0] + ig.sum[y0*stride+x0]
	return s / float64((x1-x0+1)*(y1-y0+1))
}

// WritePGM serializes the image as a binary PGM (P5), the simplest format
// external viewers open — used to inspect rendered frames and detector
// inputs when debugging scenarios.
func (im *Image) WritePGM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", im.W, im.H); err != nil {
		return fmt.Errorf("vision: write pgm header: %w", err)
	}
	buf := make([]byte, im.W*im.H)
	for i, v := range im.Pix {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		buf[i] = byte(v*255 + 0.5)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("vision: write pgm pixels: %w", err)
	}
	return nil
}
