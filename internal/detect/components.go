package detect

import (
	"math"

	"repro/internal/vision"
)

// component is a connected dark region with the statistics the candidate
// filters need.
type component struct {
	area          int
	minX, minY    int
	maxX, maxY    int
	cx, cy        float64 // centroid
	angle         float64 // min-area-rect orientation, radians in [0, pi/2)
	width, height float64 // min-area-rect extents (width >= height)
}

// bboxW and bboxH return the axis-aligned bounding-box extents.
func (c *component) bboxW() int { return c.maxX - c.minX + 1 }
func (c *component) bboxH() int { return c.maxY - c.minY + 1 }

// detScratch holds the per-detector reusable buffers of the shared
// proposal pipeline (integral image, window tables, threshold mask,
// flood-fill state, kept components), so steady-state detection allocates
// nothing per frame. Each detector instance owns one; detectors are
// single-goroutine.
type detScratch struct {
	integral vision.Integral
	cols     []span
	mask     []bool
	visited  []bool
	pix      []int
	comps    []component
	rowMinX  []int32
	rowMaxX  []int32
}

// span is one axis of a threshold window clamped to the frame: pixels
// lo..hi1-1, n of them, which are integral-table rows or columns lo and
// hi1.
type span struct{ lo, hi1, n int }

// clampedSpan returns the window of half-width r around i, clamped to
// [0, n).
func clampedSpan(i, r, n int) span {
	lo, hi1 := max(i-r, 0), min(i+r, n-1)+1
	return span{lo, hi1, hi1 - lo}
}

// adaptiveThreshold returns a boolean mask of pixels darker than their
// neighborhood mean by at least offset. window (>= 0) is the half-width of
// the neighborhood, clamped to the frame. This mirrors OpenCV's
// ADAPTIVE_THRESH_MEAN_C binarization. The returned mask aliases the
// scratch and is valid until the next call.
//
// Each pixel's window comes from a per-column and a per-row table of
// clamped spans, so border pixels cost what interior ones do, and the
// mean is the clamping vision.Integral.BoxMean's: the same four table
// reads, subtraction order and divisor.
func adaptiveThreshold(im *vision.Image, window int, offset float64, s *detScratch) []bool {
	s.integral.Compute(im)
	ig := &s.integral
	s.mask = grow(s.mask, im.W*im.H)
	s.cols = grow(s.cols, im.W)
	for x := range s.cols {
		s.cols[x] = clampedSpan(x, window, im.W)
	}
	for y := 0; y < im.H; y++ {
		r := clampedSpan(y, window, im.H)
		top, bot := ig.Row(r.lo), ig.Row(r.hi1)
		pix := im.Pix[y*im.W:][:im.W]
		mask := s.mask[y*im.W:][:im.W]
		for x, c := range s.cols[:im.W] {
			sum := bot[c.hi1] - top[c.hi1] - bot[c.lo] + top[c.lo]
			mask[x] = pix[x] < sum/float64(c.n*r.n)-offset
		}
	}
	return s.mask
}

// grow returns buf resliced to n elements, reallocated only when its
// capacity is short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// findComponents labels 4-connected dark regions in the mask and returns
// those within the plausible marker size band, in raster order of their
// first pixel. Each region floods into one reused pixel buffer and the
// kept ones go into a reused slice, so a dropped blob costs no
// allocation. The returned components alias the scratch and, like the
// mask, stay valid only until the next call.
func findComponents(mask []bool, w, h int, s *detScratch) []component {
	if w == 0 || h == 0 {
		return nil
	}
	maxArea := int(maxComponentFrac * float64(w*h))
	s.visited = grow(s.visited, len(mask))
	visited := s.visited
	clear(visited)
	// pix is the flood's queue and the region's pixel list at once: a
	// region never holds more pixels than the mask.
	s.pix = grow(s.pix, len(mask))
	comps := s.comps[:0]
	for start, dark := range mask {
		if !dark || visited[start] {
			continue
		}
		// Breadth-first flood. The region's sums are of integers far
		// below 2^53, so they are exact in any visiting order.
		pix := s.pix[:1]
		pix[0] = start
		visited[start] = true
		c := component{minX: w, minY: h}
		var sx, sy float64
		for head := 0; head < len(pix); head++ {
			idx := pix[head]
			x, y := idx%w, idx/w
			sx += float64(x)
			sy += float64(y)
			c.minX = min(c.minX, x)
			c.maxX = max(c.maxX, x)
			c.minY = min(c.minY, y)
			c.maxY = max(c.maxY, y)
			// 4-neighbors.
			if x > 0 && mask[idx-1] && !visited[idx-1] {
				visited[idx-1] = true
				pix = append(pix, idx-1)
			}
			if x < w-1 && mask[idx+1] && !visited[idx+1] {
				visited[idx+1] = true
				pix = append(pix, idx+1)
			}
			if y > 0 && mask[idx-w] && !visited[idx-w] {
				visited[idx-w] = true
				pix = append(pix, idx-w)
			}
			if y < h-1 && mask[idx+w] && !visited[idx+w] {
				visited[idx+w] = true
				pix = append(pix, idx+w)
			}
		}
		c.area = len(pix)
		if c.area < minComponentArea || c.area > maxArea {
			continue
		}
		c.cx = sx / float64(c.area)
		c.cy = sy / float64(c.area)
		fitMinAreaRect(&c, pix, w, s)
		comps = append(comps, c)
	}
	s.comps = comps
	return comps
}

// rectSteps is fitMinAreaRect's angle resolution: 5° over [0°, 90°).
const rectSteps = 18

// rectAngles holds each candidate orientation with its cosine and sine.
var rectAngles = func() (t [rectSteps]struct{ theta, cos, sin float64 }) {
	for s := range t {
		theta := float64(s) * (math.Pi / 2) / rectSteps
		t[s].theta, t[s].cos, t[s].sin = theta, math.Cos(theta), math.Sin(theta)
	}
	return t
}()

// fitMinAreaRect sweeps candidate orientations and records the rotation
// minimizing the projected bounding-rectangle area of the component whose
// pixels (linear mask indices, row stride stride) are given. A square
// marker border is rotation-ambiguous mod 90°, which the decoders resolve
// separately by trying all four rotations of the bit grid.
//
// The sweep only needs each row's leftmost and rightmost pixel: every
// candidate angle theta in [0°, 90°) has cos(theta) > 0, so along a fixed
// row both projections u = x cos + y sin and v = -x sin + y cos attain
// their extremes at the row's extreme x. Scanning those 2·rows pixels
// yields bit-identical extents to scanning the whole component.
func fitMinAreaRect(c *component, pixels []int, stride int, s *detScratch) {
	rows := c.maxY - c.minY + 1
	s.rowMinX = grow(s.rowMinX, rows)
	s.rowMaxX = grow(s.rowMaxX, rows)
	rowMinX, rowMaxX := s.rowMinX, s.rowMaxX
	for i := range rowMinX {
		rowMinX[i] = int32(stride)
		rowMaxX[i] = -1
	}
	for _, idx := range pixels {
		x, y := int32(idx%stride), idx/stride-c.minY
		rowMinX[y] = min(rowMinX[y], x)
		rowMaxX[y] = max(rowMaxX[y], x)
	}

	bestArea := math.Inf(1)
	for _, r := range &rectAngles {
		cos, sin := r.cos, r.sin
		minU, maxU := math.Inf(1), math.Inf(-1)
		minV, maxV := math.Inf(1), math.Inf(-1)
		for ry := 0; ry < rows; ry++ {
			if rowMaxX[ry] < 0 {
				continue // row without pixels (components need not be convex)
			}
			y := float64(ry + c.minY)
			for _, xi := range [2]int32{rowMinX[ry], rowMaxX[ry]} {
				x := float64(xi)
				u := x*cos + y*sin
				v := -x*sin + y*cos
				if u < minU {
					minU = u
				}
				if u > maxU {
					maxU = u
				}
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
			}
		}
		w := maxU - minU + 1
		h := maxV - minV + 1
		if a := w * h; a < bestArea {
			bestArea = a
			c.angle = r.theta
			if w >= h {
				c.width, c.height = w, h
			} else {
				c.width, c.height = h, w
			}
		}
	}
}

// squareness returns height/width of the min-area rectangle in (0, 1];
// 1 means perfectly square.
func (c *component) squareness() float64 {
	if c.width == 0 {
		return 0
	}
	return c.height / c.width
}

// fillRatio returns the fraction of the min-area rectangle covered by dark
// pixels. A marker border ring plus dark code bits lands mid-range; solid
// blobs (rocks, roof edges) approach 1.
func (c *component) fillRatio() float64 {
	r := c.width * c.height
	if r <= 0 {
		return 0
	}
	return float64(c.area) / r
}
