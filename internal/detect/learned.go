package detect

import (
	"math"

	"repro/internal/geom"
	"repro/internal/vision"
)

// patchN is the side length of the normalized patch the learned detector
// correlates against its template bank.
const patchN = 20

// quadN is the quadrant side (patchN/2) used by the occlusion-tolerant
// quadrant vote.
const quadN = patchN / 2

// Learned simulates the TPH-YOLO detector of MLS-V2/V3 (paper §III-A).
//
// Mechanism: candidate regions are proposed permissively from dark
// components, then verified by multi-scale, multi-angle normalized cross-
// correlation against a rendered template bank. Per-patch photometric
// normalization supplies the brightness/contrast invariance the paper's
// augmented training set provides; per-quadrant voting supplies the
// partial-occlusion tolerance; the multi-scale search supplies small-object
// sensitivity beyond the classical grid decoder's reach.
type Learned struct {
	Dict *vision.Dictionary

	// TauFull is the full-patch NCC acceptance threshold.
	TauFull float64
	// TauQuad and MinQuadVotes govern the occlusion fallback: a candidate
	// whose full-patch score fails still passes if at least MinQuadVotes
	// quadrants individually correlate above TauQuad.
	TauQuad      float64
	MinQuadVotes int
	// MinSidePx is the smallest proposal worth verifying.
	MinSidePx float64
	// ProposalOffset is the (permissive) adaptive-threshold margin for
	// proposal generation.
	ProposalOffset float64

	// Fast selects the coarse-to-fine verify (see learned_fast.go); set it
	// through EnableFast, which also builds the float32 template banks. Off
	// (the zero value), the detector runs the exact verify untouched.
	Fast bool

	templates []learnedTemplate
	scratch   detScratch

	// Fast-path state, nil/zero until EnableFast.
	fastTpl []fastTemplate
	fastCs  []float32
	fastScr fastScratch
}

// learnedTemplate is one normalized template with per-quadrant
// normalizations, for one (marker, quarter-rotation) pair.
type learnedTemplate struct {
	id   int
	vals [patchN * patchN]float64 // zero-mean, unit-norm over the patch
	quad [4][quadN * quadN]float64
}

// NewLearnedV2 returns the learned detector with the thresholds the
// second-generation system shipped with.
func NewLearnedV2(dict *vision.Dictionary) *Learned {
	return newLearned(dict, 0.62, 0.66, 3)
}

// NewLearnedV3 returns the third-generation calibration: the same model
// with acceptance thresholds re-tuned on the enlarged simulation dataset,
// which is what lowers the false-negative rate from 2.67% to 2.00% in
// Table II.
func NewLearnedV3(dict *vision.Dictionary) *Learned {
	return newLearned(dict, 0.56, 0.62, 3)
}

func newLearned(dict *vision.Dictionary, tauFull, tauQuad float64, votes int) *Learned {
	l := &Learned{
		Dict:           dict,
		TauFull:        tauFull,
		TauQuad:        tauQuad,
		MinQuadVotes:   votes,
		MinSidePx:      9,
		ProposalOffset: 0.05,
	}
	l.buildTemplates()
	return l
}

// Name implements Detector.
func (l *Learned) Name() string { return "tph-yolo-equivalent" }

// buildTemplates renders the marker grid (border + code, no quiet zone) at
// patch resolution for all four quarter rotations of every dictionary entry
// and pre-normalizes them. A marker's four rotations are consecutive, so
// the bank is whole groups of four, which verify correlates per pass.
func (l *Learned) buildTemplates() {
	l.templates = l.templates[:0]
	for _, m := range l.Dict.Markers {
		base := renderGridPatch(m)
		for rot := 0; rot < 4; rot++ {
			var t learnedTemplate
			t.id = m.ID
			t.vals = rotatePatch(base, rot)
			normalizePatch(t.vals[:])
			for q := range t.quad {
				t.quad[q] = quadrant(&t.vals, q)
			}
			l.templates = append(l.templates, t)
		}
	}
}

// renderGridPatch samples the marker's grid region (border included, quiet
// zone excluded) into a patchN x patchN array.
func renderGridPatch(m vision.Marker) [patchN * patchN]float64 {
	var out [patchN * patchN]float64
	const quiet = 0.10
	for y := 0; y < patchN; y++ {
		for x := 0; x < patchN; x++ {
			u := quiet + (float64(x)+0.5)/patchN*(1-2*quiet)
			v := quiet + (float64(y)+0.5)/patchN*(1-2*quiet)
			out[y*patchN+x] = m.PatternAt(u, v)
		}
	}
	return out
}

// rotatePatch rotates the patch by rot quarter turns clockwise.
func rotatePatch(p [patchN * patchN]float64, rot int) [patchN * patchN]float64 {
	out := p
	for r := 0; r < rot%4; r++ {
		var next [patchN * patchN]float64
		for y := 0; y < patchN; y++ {
			for x := 0; x < patchN; x++ {
				// (x, y) -> (patchN-1-y, x)
				next[x*patchN+(patchN-1-y)] = out[y*patchN+x]
			}
		}
		out = next
	}
	return out
}

// normalizePatch makes the values zero-mean and unit-norm in place; flat
// patches are left zeroed (they correlate with nothing).
func normalizePatch(v []float64) {
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	var ss float64
	for i := range v {
		v[i] -= mean
		ss += v[i] * v[i]
	}
	n := math.Sqrt(ss)
	if n < 1e-9 {
		for i := range v {
			v[i] = 0
		}
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// quadrant copies quadrant q (0..3, row-major) of a normalized patch and
// normalizes it on its own, so occluded-region statistics do not poison
// intact ones. Normalization is affine-invariant, so normalizing the
// already normalized values gives what the raw values would.
func quadrant(p *[patchN * patchN]float64, q int) [quadN * quadN]float64 {
	ox := (q % 2) * quadN
	oy := (q / 2) * quadN
	var buf [quadN * quadN]float64
	for y := 0; y < quadN; y++ {
		for x := 0; x < quadN; x++ {
			buf[y*quadN+x] = p[(oy+y)*patchN+(ox+x)]
		}
	}
	normalizePatch(buf[:])
	return buf
}

// Detect implements Detector.
func (l *Learned) Detect(im *vision.Image) []Detection {
	if im.W == 0 || im.H == 0 {
		return nil
	}
	mask := adaptiveThreshold(im, 9, l.ProposalOffset, &l.scratch)
	comps := findComponents(mask, im.W, im.H, &l.scratch)
	var out []Detection
	for i := range comps {
		comp := &comps[i]
		if comp.width < l.MinSidePx || comp.squareness() < 0.35 {
			continue
		}
		var det Detection
		var ok bool
		if l.Fast {
			det, ok = l.verifyFast(im, comp)
		} else {
			det, ok = l.verify(im, comp)
		}
		if ok {
			out = append(out, det)
		}
	}
	return dedupe(out)
}

// verify runs the multi-scale, multi-angle NCC search on one proposal.
//
// Each pose's patch is correlated against four templates per pass — a
// marker's four quarter turns, which buildTemplates stores consecutively —
// and a template's four quadrant correlations are taken in one pass. Each
// of those sums runs in index order, as a lone dot product's would, so
// every score has the bits of one dot product per template and quadrant.
func (l *Learned) verify(im *vision.Image, comp *component) (Detection, bool) {
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
			if !samplePatch(im, comp.cx, comp.cy, side, ang, &patch) {
				continue
			}
			normalizePatch(patch[:])
			quadsBuilt := false
			for ti := 0; ti < len(l.templates); ti += 4 {
				group := l.templates[ti : ti+4]
				scores := dot4(&patch, &group[0].vals, &group[1].vals, &group[2].vals, &group[3].vals)
				for k, score := range scores {
					t := &group[k]
					votes := 0
					// rank = score + 0.1·votes is at most score + 0.4
					// (0.1*4 rounds to 0.4, and rounding is monotonic), so
					// a template with score + 0.4 <= bestScore cannot win
					// and its votes need not be counted.
					if score+0.4 > bestScore {
						if !quadsBuilt {
							for q := range quads {
								quads[q] = quadrant(&patch, q)
							}
							quadsBuilt = true
						}
						for _, qs := range dotQuads(&quads, &t.quad) {
							if qs >= l.TauQuad {
								votes++
							}
						}
					}
					// Rank candidates by a blend so a high-vote occluded hit
					// can beat a mediocre full-patch hit.
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
		// Occlusion-vote acceptance carries lower confidence.
		conf = 0.5 + 0.1*float64(bestVotes-l.MinQuadVotes)
	}
	return Detection{
		ID:         bestID,
		Center:     geom.V2(comp.cx, comp.cy),
		SizePx:     bestSide,
		Confidence: conf,
	}, true
}

// samplePatch bilinearly samples a rotated square region of the image into
// a patchN x patchN buffer. Samples that fall outside the frame (markers at
// the frame edge) are tolerated up to 25% and set to 0.5, mid-gray, before
// the caller normalizes the patch.
func samplePatch(im *vision.Image, cx, cy, side, angle float64, out *[patchN * patchN]float64) bool {
	cos, sin := math.Cos(angle), math.Sin(angle)
	cell := side / patchN
	// Each sample point is cx + lx*cos - ly*sin, cy + lx*sin + ly*cos; the
	// column terms (cx + lx*cos, cy + lx*sin) and the row terms (ly*sin,
	// ly*cos) are computed once per patch, on the same operands.
	var colX, colY, rowX, rowY [patchN]float64
	for g := range colX {
		l := (float64(g)+0.5)*cell - side/2
		colX[g], colY[g] = cx+l*cos, cy+l*sin
		rowX[g], rowY[g] = l*sin, l*cos
	}
	maxX, maxY := float64(im.W-1), float64(im.H-1)
	outside := 0
	for gy := range rowX {
		row := out[gy*patchN:][:patchN]
		for gx := range colX {
			px := colX[gx] - rowX[gy]
			py := colY[gx] + rowY[gy]
			if px < 0 || py < 0 || px > maxX || py > maxY {
				outside++
				row[gx] = 0.5
				continue
			}
			row[gx] = im.BilinearInterior(px, py)
		}
	}
	return outside <= patchN*patchN/4
}

// dot4 correlates a with four vectors in one pass. Each of the four
// accumulators sums in index order, as a lone dot product would.
func dot4(a, b0, b1, b2, b3 *[patchN * patchN]float64) [4]float64 {
	var s0, s1, s2, s3 float64
	for i, v := range a {
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return [4]float64{s0, s1, s2, s3}
}

// dotQuads correlates each quadrant of a with the same quadrant of b in
// one pass, each sum in index order.
func dotQuads(a, b *[4][quadN * quadN]float64) [4]float64 {
	var s0, s1, s2, s3 float64
	for i := range a[0] {
		s0 += a[0][i] * b[0][i]
		s1 += a[1][i] * b[1][i]
		s2 += a[2][i] * b[2][i]
		s3 += a[3][i] * b[3][i]
	}
	return [4]float64{s0, s1, s2, s3}
}
