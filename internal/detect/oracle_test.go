package detect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/vision"
	"repro/internal/worldgen"
)

// oracle runs the rewritten detection layer and the reference one
// (reference_test.go) side by side and fails at the first differing bit.
type oracle struct {
	t         *testing.T
	v2, v3    *Learned
	fast      *Learned
	classical *Classical
	s         detScratch
	ref       refScratch

	// Coverage tallies.
	frames, comps                  int
	dets                           map[string]int
	verified, voteAccepted, skips  int
	edgeComps, narrowFrames, odd4H int
}

func newOracle(t *testing.T) *oracle {
	dict := vision.DefaultDictionary()
	o := &oracle{
		t:         t,
		v2:        NewLearnedV2(dict),
		v3:        NewLearnedV3(dict),
		fast:      NewLearnedV3(dict),
		classical: NewClassical(dict),
		dets:      map[string]int{},
	}
	o.fast.EnableFast()
	return o
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check compares masks, every component field, verify on every component
// and the Detection lists of V2, V3, fast V3 and the classical pipeline.
func (o *oracle) check(what string, im *vision.Image) {
	t := o.t
	t.Helper()
	o.frames++
	if im.W < 2*9+1 {
		o.narrowFrames++
	}
	if im.H%4 != 0 {
		o.odd4H++
	}
	for _, offset := range []float64{o.v3.ProposalOffset, o.classical.Offset} {
		mask := adaptiveThreshold(im, 9, offset, &o.s)
		want := refAdaptiveThreshold(im, 9, offset, &o.ref)
		if len(mask) != len(want) {
			t.Fatalf("%s offset %v: mask has %d pixels, reference %d", what, offset, len(mask), len(want))
		}
		for i := range want {
			if mask[i] != want[i] {
				t.Fatalf("%s offset %v: mask pixel %d = %v, reference %v", what, offset, i, mask[i], want[i])
			}
		}
		comps := findComponents(mask, im.W, im.H, &o.s)
		refComps := refFindComponents(want, im.W, im.H, &o.ref)
		o.sameComponents(fmt.Sprintf("%s offset %v", what, offset), comps, refComps)
		if offset != o.v3.ProposalOffset {
			continue
		}
		for i := range comps {
			c := &comps[i]
			if c.minX == 0 || c.minY == 0 || c.maxX == im.W-1 || c.maxY == im.H-1 {
				o.edgeComps++
			}
			for _, l := range []*Learned{o.v2, o.v3} {
				got, ok := l.verify(im, c)
				want, wantOK := refVerify(l, im, refComps[i], o)
				if ok != wantOK || !sameDetection(got, want) {
					t.Fatalf("%s component %d (TauFull %v): verify = %+v, %v; reference %+v, %v",
						what, i, l.TauFull, got, ok, want, wantOK)
				}
				if ok {
					o.verified++
				}
			}
		}
	}
	for _, d := range []struct {
		name      string
		got, want []Detection
	}{
		{"V2", o.v2.Detect(im), refDetectLearned(o.v2, im, &o.ref, nil)},
		{"V3", o.v3.Detect(im), refDetectLearned(o.v3, im, &o.ref, nil)},
		{"fast V3", o.fast.Detect(im), refDetectLearned(o.fast, im, &o.ref, nil)},
		{"classical", o.classical.Detect(im), refDetectClassical(o.classical, im, &o.ref)},
	} {
		if len(d.got) != len(d.want) {
			t.Fatalf("%s %s: %d detections %+v, reference %d %+v", what, d.name, len(d.got), d.got, len(d.want), d.want)
		}
		for i := range d.want {
			if !sameDetection(d.got[i], d.want[i]) {
				t.Fatalf("%s %s: detection %d = %+v, reference %+v", what, d.name, i, d.got[i], d.want[i])
			}
		}
		o.dets[d.name] += len(d.got)
	}
}

func sameDetection(a, b Detection) bool {
	return a.ID == b.ID && a.HasYaw == b.HasYaw &&
		sameFloat(a.Center.X, b.Center.X) && sameFloat(a.Center.Y, b.Center.Y) &&
		sameFloat(a.SizePx, b.SizePx) && sameFloat(a.Confidence, b.Confidence) &&
		sameFloat(a.Yaw, b.Yaw)
}

func (o *oracle) sameComponents(what string, got []component, want []*refComponent) {
	t := o.t
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d components, reference %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := &got[i]
		if g.area != w.area || g.minX != w.minX || g.minY != w.minY || g.maxX != w.maxX || g.maxY != w.maxY ||
			!sameFloat(g.cx, w.cx) || !sameFloat(g.cy, w.cy) || !sameFloat(g.angle, w.angle) ||
			!sameFloat(g.width, w.width) || !sameFloat(g.height, w.height) {
			t.Fatalf("%s: component %d = %+v, reference %+v", what, i, *g, *w.asComponent())
		}
	}
	o.comps += len(got)
}

// worldFlight returns the frames one map's flight sees: a spiral descent
// onto the landing marker from 40 m to 1.5 m, then passes over the map's
// buildings, trees, water and random ground at mixed altitudes, the yaw
// turning through every quadrant. Frame k is degraded by one of the
// photometric conditions, in turn.
func worldFlight(t *testing.T, m int) []*vision.Image {
	sc, err := worldgen.Generate(m, (2*m+1)%worldgen.NumScenariosPerMap)
	if err != nil {
		t.Fatal(err)
	}
	w := sc.World
	rng := rand.New(rand.NewSource(int64(21 + m)))
	cam := sim.NewColorCamera(int64(m))
	var frames []*vision.Image
	for k := 0; k < 24; k++ {
		target := sc.TrueMarker
		z := 40 * math.Pow(1.5/40, float64(k)/11)
		if k >= 12 {
			z = []float64{3, 6, 10, 15, 22, 30}[k%6]
			target = geom.V3((rng.Float64()-0.5)*160, (rng.Float64()-0.5)*160, 0)
			switch {
			case k%4 == 0 && len(w.Buildings) > 0:
				target = w.Buildings[rng.Intn(len(w.Buildings))].Center()
			case k%4 == 1 && len(w.Trees) > 0:
				tr := w.Trees[rng.Intn(len(w.Trees))]
				target = geom.V3(tr.Center.X, tr.Center.Y, 0)
			case k%4 == 2 && len(w.Water) > 0:
				target = w.Water[rng.Intn(len(w.Water))].Center()
			}
		}
		off := 0.25 * z
		pos := geom.V3(target.X+(rng.Float64()-0.5)*off, target.Y+(rng.Float64()-0.5)*off, z)
		yaw := float64(k)*math.Pi/2 + rng.Float64()
		im := cam.Capture(w, sim.Weather{}, pos, yaw, 0).Clone()
		cond := frameConditions(k+m, rng)
		cond.Apply(im, z, rng)
		frames = append(frames, im)
	}
	return frames
}

// frameConditions returns the k-th of the eight photometric cases: clear,
// fog, dusk, glare, shadow band, occlusion disc, motion blur, rain noise.
func frameConditions(k int, rng *rand.Rand) vision.Conditions {
	switch k % 8 {
	case 1:
		return vision.Conditions{Fog: 0.3 + 0.5*rng.Float64()}
	case 2:
		return vision.Conditions{Brightness: -0.2, Contrast: 0.6}
	case 3:
		return vision.Conditions{Glare: 0.5 + 0.5*rng.Float64(), GlareU: 0.3 + 0.4*rng.Float64(), GlareV: 0.3 + 0.4*rng.Float64()}
	case 4:
		return vision.Conditions{Shadow: 0.4 + 0.4*rng.Float64(), ShadowPos: rng.Float64()}
	case 5:
		return vision.Conditions{Occlusion: 0.7 + 0.3*rng.Float64(), OccU: 0.4 + 0.2*rng.Float64(), OccV: 0.4 + 0.2*rng.Float64(), OccR: 0.04 + 0.05*rng.Float64()}
	case 6:
		return vision.Conditions{MotionBlur: 1 + 4*rng.Float64()}
	case 7:
		return vision.Conditions{RainNoise: 0.02 + 0.05*rng.Float64()}
	}
	return vision.Conditions{}
}

// syntheticFrames returns hand-placed marker frames: rotated, partly
// occluded by a disc, undersized; frames narrower than the threshold
// window; and heights that are not a multiple of four.
func syntheticFrames() map[string]*vision.Image {
	dict := vision.DefaultDictionary()
	out := map[string]*vision.Image{}
	frame := func(w, h int, fill float64) *vision.Image {
		im := vision.NewImage(w, h)
		im.Fill(fill)
		return im
	}
	for i, ang := range []float64{0, 0.1, 0.33, 0.7, 1.2, 2.1, 3.0, 4.4, 5.9} {
		im := frame(160, 120, 0.7)
		drawMarker(im, dict.Markers[i%len(dict.Markers)], 80, 60, 30+4*float64(i), ang)
		out[fmt.Sprintf("rotated %.2f", ang)] = im
	}
	for i := 0; i < 6; i++ {
		im := frame(160, 120, 0.65)
		drawMarker(im, dict.Markers[i], 80, 60, 48, 0.2*float64(i))
		vision.Conditions{Occlusion: 1, OccU: 0.45 + 0.03*float64(i), OccV: 0.45, OccR: 0.05 + 0.02*float64(i)}.Apply(im, 10, nil)
		out[fmt.Sprintf("occlusion disc %d", i)] = im
	}
	for i, pad := range []float64{4, 6, 8, 10, 11, 12, 14} {
		im := frame(96, 80, 0.72)
		drawMarker(im, dict.Markers[i], 48, 40, pad, 0.3*float64(i))
		drawMarker(im, dict.Markers[(i+1)%len(dict.Markers)], 20, 20, pad+2, 0)
		out[fmt.Sprintf("undersized %v", pad)] = im
	}
	rng := rand.New(rand.NewSource(5))
	for _, sz := range [][2]int{{1, 1}, {1, 40}, {5, 30}, {9, 9}, {12, 50}, {18, 18}, {18, 3}, {19, 19}, {40, 7}, {0, 10}, {10, 0}} {
		im := frame(sz[0], sz[1], 0.6)
		for i := range im.Pix {
			if rng.Intn(3) == 0 {
				im.Pix[i] = 0.1 * rng.Float64()
			}
		}
		out[fmt.Sprintf("narrow %dx%d", sz[0], sz[1])] = im
	}
	for i, h := range []int{121, 122, 123, 125, 23} {
		im := frame(160, h, 0.7)
		drawMarker(im, dict.Markers[i], 70+5*float64(i), float64(h)/2, 40, 0.4*float64(i))
		for p := range im.Pix {
			if rng.Intn(40) == 0 {
				im.Pix[p] = 0.05
			}
		}
		out[fmt.Sprintf("height %d", h)] = im
	}
	return out
}

// occludedQuadrantFrames returns frames of a marker whose 38.4 px grid,
// centred at (80, 60), has most or all of one quadrant covered by a
// bright patch: the full-patch score falls under V2's threshold while
// the other three quadrants still vote.
func occludedQuadrantFrames() []*vision.Image {
	dict := vision.DefaultDictionary()
	var out []*vision.Image
	for i := 0; i < 16; i++ {
		im := vision.NewImage(160, 120)
		im.Fill(0.65)
		drawMarker(im, dict.Markers[i%len(dict.Markers)], 80, 60, 48, 0)
		side := 19.2 * (0.85 + 0.05*float64(i%4))
		x0, y0 := 80-side*float64(1-i%2), 60-side*float64(1-(i/2)%2)
		for y := int(y0); y < int(y0+side); y++ {
			for x := int(x0); x < int(x0+side); x++ {
				im.Set(x, y, 0.9)
			}
		}
		out = append(out, im)
	}
	return out
}

// edgeMarker is a marker frame whose pad is cut by an edge or a corner
// of the frame, or reaches into the last pixel column or row, where
// interpolation has no neighbour beyond; the ground is textured so that
// neighbouring pixels differ. cx, cy and grid are where the marker's grid
// lies.
type edgeMarker struct {
	im           *vision.Image
	cx, cy, grid float64
}

func edgeMarkers() []edgeMarker {
	dict := vision.DefaultDictionary()
	var out []edgeMarker
	for i, c := range [][3]float64{
		{16, 60, 50}, {10, 60, 50}, {150, 60, 50}, {80, 6, 50}, {80, 116, 50}, {8, 8, 50}, {156, 116, 50}, {3, 100, 50},
		{148.3, 60.7, 40}, {80.4, 108.6, 40}, {148.6, 108.2, 36}, {150.8, 30.2, 38}, {9.7, 40.4, 40}, {70.2, 10.9, 40},
	} {
		im := vision.NewImage(160, 120)
		for p := range im.Pix {
			im.Pix[p] = 0.7 + 0.05*math.Sin(float64(p%160)*1.3+float64(p/160)*0.7)
		}
		drawMarker(im, dict.Markers[(i+3)%len(dict.Markers)], c[0], c[1], c[2], 0)
		out = append(out, edgeMarker{im, c[0], c[1], 0.8 * c[2]})
	}
	return out
}

// checkVerify compares verify with the reference on one hand-made
// proposal, at the V2 and V3 thresholds.
func (o *oracle) checkVerify(what string, im *vision.Image, c component) {
	o.t.Helper()
	ref := &refComponent{cx: c.cx, cy: c.cy, angle: c.angle, width: c.width, height: c.height}
	for _, l := range []*Learned{o.v2, o.v3} {
		got, ok := l.verify(im, &c)
		want, wantOK := refVerify(l, im, ref, o)
		if ok != wantOK || !sameDetection(got, want) {
			o.t.Fatalf("%s (TauFull %v): verify = %+v, %v; reference %+v, %v", what, l.TauFull, got, ok, want, wantOK)
		}
	}
}

// TestDetectionMatchesReference holds the rewritten detection layer —
// the four-row integral, the tabled threshold windows, the reused flood
// buffers, the tabled rectangle angles, the hoisted patch sampler and the
// four-templates-per-pass verify with its vote skip — to the reference it
// replaced, bit for bit: masks, every component field, verify on every
// proposal at the V2 and V3 thresholds, and the Detection lists of V2,
// V3, fast V3 and the classical pipeline. It flies 24 frames over each of
// the ten worldgen maps under every photometric condition, then
// hand-placed markers, some verified directly at their true pose.
func TestDetectionMatchesReference(t *testing.T) {
	o := newOracle(t)
	for m := range worldgen.Maps() {
		for k, im := range worldFlight(t, m) {
			o.check(fmt.Sprintf("map %d frame %d", m, k), im)
		}
	}
	world := o.frames
	for name, im := range syntheticFrames() {
		o.check(name, im)
	}
	for _, e := range edgeMarkers() {
		what := fmt.Sprintf("edge marker at (%v, %v)", e.cx, e.cy)
		o.check(what, e.im)
		for _, a := range []float64{-0.05, 0, 0.05} {
			o.checkVerify(fmt.Sprintf("%s angle %v", what, a), e.im, component{cx: e.cx, cy: e.cy, angle: a, width: e.grid, height: e.grid})
		}
	}
	for i, im := range occludedQuadrantFrames() {
		what := fmt.Sprintf("occluded quadrant %d", i)
		o.check(what, im)
		for _, w := range []float64{34.5, 38.4, 42} {
			for _, a := range []float64{-0.05, 0, 0.05} {
				o.checkVerify(fmt.Sprintf("%s width %v angle %v", what, w, a), im,
					component{cx: 80, cy: 60, angle: a, width: w, height: w})
			}
		}
	}
	t.Logf("%d worldgen + %d synthetic frames, %d components (%d touching the frame edge), %d verified, %d by quadrant votes, %d vote skips; detections %v",
		world, o.frames-world, o.comps, o.edgeComps, o.verified, o.voteAccepted, o.skips, o.dets)

	if world < 240 {
		t.Errorf("flew %d worldgen frames, want 240", world)
	}
	for _, name := range []string{"V2", "V3", "fast V3", "classical"} {
		if o.dets[name] < 30 {
			t.Errorf("%s found %d markers over the sweep, want at least 30", name, o.dets[name])
		}
	}
	if o.voteAccepted < 50 {
		t.Errorf("%d proposals accepted by quadrant votes, want at least 50", o.voteAccepted)
	}
	if o.skips < 1000 {
		t.Errorf("%d templates met the vote skip, want at least 1000", o.skips)
	}
	if o.edgeComps < 50 || o.narrowFrames < 8 || o.odd4H < 10 {
		t.Errorf("coverage: %d edge components (want 50), %d narrow frames (want 8), %d heights not a multiple of 4 (want 10)",
			o.edgeComps, o.narrowFrames, o.odd4H)
	}
}

// TestComponentsMatchReferenceOnMasks feeds both proposal stages masks
// no threshold produces — random densities up to a single full-frame
// blob past the size band — so dropped and kept regions interleave in
// every pattern.
func TestComponentsMatchReferenceOnMasks(t *testing.T) {
	o := newOracle(t)
	rng := rand.New(rand.NewSource(9))
	for _, sz := range [][2]int{{64, 48}, {7, 5}, {1, 30}, {30, 1}, {128, 128}} {
		w, h := sz[0], sz[1]
		for _, p := range []float64{0, 0.2, 0.45, 0.6, 0.9, 1} {
			mask := make([]bool, w*h)
			for i := range mask {
				mask[i] = rng.Float64() < p
			}
			what := fmt.Sprintf("%dx%d density %v", w, h, p)
			want := refFindComponents(append([]bool(nil), mask...), w, h, &o.ref)
			o.sameComponents(what, findComponents(mask, w, h, &o.s), want)
		}
	}
	if o.comps < 100 {
		t.Errorf("%d components compared, want at least 100", o.comps)
	}
}
