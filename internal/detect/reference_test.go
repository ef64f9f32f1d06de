package detect

import (
	"math"

	"repro/internal/geom"
	"repro/internal/vision"
)

// The detection layer as it was before its same-bits rewrite, kept as the
// oracle the rewrite is held to: a clamping BoxMean call per pixel, a
// freshly allocated component and pixel list per dark blob, cos/sin per
// candidate angle, the full rotation and the clamping interpolation per
// patch sample, and one dot product per template and per quadrant.
// oracle_test.go compares the rewritten stage with it bit for bit. The
// fast verify was not rewritten, so the fast reference runs verifyFast on
// the reference proposals; the sampler and quadrant code verifyFast shares
// with verify is held to this reference through verify.

// refComponent is the component the reference proposal stage returns.
type refComponent struct {
	area          int
	minX, minY    int
	maxX, maxY    int
	cx, cy        float64
	angle         float64
	width, height float64
	pixels        []int
}

// refScratch holds the reference stage's reusable buffers.
type refScratch struct {
	integral vision.Integral
	mask     []bool
	visited  []bool
	queue    []int
	rowMinX  []int32
	rowMaxX  []int32
}

func refAdaptiveThreshold(im *vision.Image, window int, offset float64, s *refScratch) []bool {
	s.integral.Compute(im)
	if cap(s.mask) < im.W*im.H {
		s.mask = make([]bool, im.W*im.H)
	}
	mask := s.mask[:im.W*im.H]
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			m := s.integral.BoxMean(x-window, y-window, x+window, y+window)
			mask[y*im.W+x] = im.Pix[y*im.W+x] < m-offset
		}
	}
	return mask
}

func refFindComponents(mask []bool, w, h int, s *refScratch) []*refComponent {
	if w == 0 || h == 0 {
		return nil
	}
	maxArea := int(maxComponentFrac * float64(w*h))
	if cap(s.visited) < len(mask) {
		s.visited = make([]bool, len(mask))
	}
	visited := s.visited[:len(mask)]
	for i := range visited {
		visited[i] = false
	}
	if s.queue == nil {
		s.queue = make([]int, 0, 256)
	}
	queue := s.queue
	var comps []*refComponent
	for start := range mask {
		if !mask[start] || visited[start] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = true
		c := &refComponent{minX: w, minY: h}
		var sx, sy float64
		for len(queue) > 0 {
			idx := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := idx%w, idx/w
			c.area++
			c.pixels = append(c.pixels, idx)
			sx += float64(x)
			sy += float64(y)
			if x < c.minX {
				c.minX = x
			}
			if x > c.maxX {
				c.maxX = x
			}
			if y < c.minY {
				c.minY = y
			}
			if y > c.maxY {
				c.maxY = y
			}
			if x > 0 && mask[idx-1] && !visited[idx-1] {
				visited[idx-1] = true
				queue = append(queue, idx-1)
			}
			if x < w-1 && mask[idx+1] && !visited[idx+1] {
				visited[idx+1] = true
				queue = append(queue, idx+1)
			}
			if y > 0 && mask[idx-w] && !visited[idx-w] {
				visited[idx-w] = true
				queue = append(queue, idx-w)
			}
			if y < h-1 && mask[idx+w] && !visited[idx+w] {
				visited[idx+w] = true
				queue = append(queue, idx+w)
			}
		}
		if c.area < minComponentArea || c.area > maxArea {
			continue
		}
		c.cx = sx / float64(c.area)
		c.cy = sy / float64(c.area)
		refFitMinAreaRect(c, w, s)
		comps = append(comps, c)
	}
	s.queue = queue[:0]
	return comps
}

func refFitMinAreaRect(c *refComponent, stride int, s *refScratch) {
	rows := c.maxY - c.minY + 1
	if cap(s.rowMinX) < rows {
		s.rowMinX = make([]int32, rows)
		s.rowMaxX = make([]int32, rows)
	}
	rowMinX := s.rowMinX[:rows]
	rowMaxX := s.rowMaxX[:rows]
	for i := range rowMinX {
		rowMinX[i] = int32(stride)
		rowMaxX[i] = -1
	}
	for _, idx := range c.pixels {
		x, y := int32(idx%stride), idx/stride-c.minY
		if x < rowMinX[y] {
			rowMinX[y] = x
		}
		if x > rowMaxX[y] {
			rowMaxX[y] = x
		}
	}

	const steps = 18
	bestArea := math.Inf(1)
	for s := 0; s < steps; s++ {
		theta := float64(s) * (math.Pi / 2) / steps
		cos, sin := math.Cos(theta), math.Sin(theta)
		minU, maxU := math.Inf(1), math.Inf(-1)
		minV, maxV := math.Inf(1), math.Inf(-1)
		for ry := 0; ry < rows; ry++ {
			if rowMaxX[ry] < 0 {
				continue
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
			c.angle = theta
			if w >= h {
				c.width, c.height = w, h
			} else {
				c.width, c.height = h, w
			}
		}
	}
}

// asComponent converts a reference component for the stages the rewrite
// left alone (the classical decoder, verifyFast, the candidate filters).
func (c *refComponent) asComponent() *component {
	return &component{
		area: c.area, minX: c.minX, minY: c.minY, maxX: c.maxX, maxY: c.maxY,
		cx: c.cx, cy: c.cy, angle: c.angle, width: c.width, height: c.height,
	}
}

func refSamplePatch(im *vision.Image, cx, cy, side, angle float64, out *[patchN * patchN]float64) bool {
	cos, sin := math.Cos(angle), math.Sin(angle)
	cell := side / patchN
	outside := 0
	for gy := 0; gy < patchN; gy++ {
		for gx := 0; gx < patchN; gx++ {
			lx := (float64(gx)+0.5)*cell - side/2
			ly := (float64(gy)+0.5)*cell - side/2
			px := cx + lx*cos - ly*sin
			py := cy + lx*sin + ly*cos
			if px < 0 || py < 0 || px > float64(im.W-1) || py > float64(im.H-1) {
				outside++
				out[gy*patchN+gx] = 0.5
				continue
			}
			out[gy*patchN+gx] = refBilinear(im, px, py)
		}
	}
	return outside <= patchN*patchN/4
}

func refBilinear(im *vision.Image, x, y float64) float64 {
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

func refDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// refVerify is the exact verify: one dot product per template and per
// quadrant, every template's votes counted. With o set, it tallies the
// templates the rewrite's vote skip leaves out and the acceptances that
// came from quadrant votes.
func refVerify(l *Learned, im *vision.Image, comp *refComponent, o *oracle) (Detection, bool) {
	scales := [3]float64{0.85, 1.0, 1.2}
	angles := [3]float64{comp.angle - 0.10, comp.angle, comp.angle + 0.10}

	bestScore := -1.0
	bestID := -1
	bestSide := comp.width
	bestVotes := 0

	var patch [patchN * patchN]float64
	var quads [4][quadN * quadN]float64
	for _, sc := range scales {
		side := comp.width * sc
		if side < l.MinSidePx {
			continue
		}
		for _, ang := range angles {
			if !refSamplePatch(im, comp.cx, comp.cy, side, ang, &patch) {
				continue
			}
			normalizePatch(patch[:])
			for q := 0; q < 4; q++ {
				ox := (q % 2) * quadN
				oy := (q / 2) * quadN
				for y := 0; y < quadN; y++ {
					for x := 0; x < quadN; x++ {
						quads[q][y*quadN+x] = patch[(oy+y)*patchN+(ox+x)]
					}
				}
				normalizePatch(quads[q][:])
			}
			for ti := range l.templates {
				t := &l.templates[ti]
				score := refDot(patch[:], t.vals[:])
				if o != nil && score+0.4 <= bestScore {
					o.skips++
				}
				votes := 0
				for q := 0; q < 4; q++ {
					if refDot(quads[q][:], t.quad[q][:]) >= l.TauQuad {
						votes++
					}
				}
				rank := score + 0.1*float64(votes)
				if rank > bestScore {
					bestScore = rank
					bestID = t.id
					bestSide = side
					bestVotes = votes
				}
			}
		}
	}
	if bestID < 0 {
		return Detection{}, false
	}
	full := bestScore - 0.1*float64(bestVotes)
	accepted := full >= l.TauFull || bestVotes >= l.MinQuadVotes
	if !accepted {
		return Detection{}, false
	}
	conf := full
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	if full < l.TauFull {
		conf = 0.5 + 0.1*float64(bestVotes-l.MinQuadVotes)
		if o != nil {
			o.voteAccepted++
		}
	}
	return Detection{
		ID:         bestID,
		Center:     geom.V2(comp.cx, comp.cy),
		SizePx:     bestSide,
		Confidence: conf,
	}, true
}

// refDetectLearned is Learned.Detect over the reference stages; in fast
// mode it runs verifyFast, which the rewrite left alone, on the reference
// proposals.
func refDetectLearned(l *Learned, im *vision.Image, s *refScratch, o *oracle) []Detection {
	if im.W == 0 || im.H == 0 {
		return nil
	}
	mask := refAdaptiveThreshold(im, 9, l.ProposalOffset, s)
	var out []Detection
	for _, comp := range refFindComponents(mask, im.W, im.H, s) {
		if comp.width < l.MinSidePx || comp.asComponent().squareness() < 0.35 {
			continue
		}
		var det Detection
		var ok bool
		if l.Fast {
			det, ok = l.verifyFast(im, comp.asComponent())
		} else {
			det, ok = refVerify(l, im, comp, o)
		}
		if ok {
			out = append(out, det)
		}
	}
	return dedupe(out)
}

// refDetectClassical is Classical.Detect over the reference proposal
// stage; the grid decoder itself was not rewritten.
func refDetectClassical(c *Classical, im *vision.Image, s *refScratch) []Detection {
	if im.W == 0 || im.H == 0 {
		return nil
	}
	mask := refAdaptiveThreshold(im, c.Window, c.Offset, s)
	var out []Detection
	for _, comp := range refFindComponents(mask, im.W, im.H, s) {
		if det, ok := c.decode(im, comp.asComponent()); ok {
			out = append(out, det)
		}
	}
	return dedupe(out)
}
