package sim

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/vision"
)

// GPS models a NEO-3-class GNSS receiver: white measurement noise plus a
// slowly wandering bias. The bias is an Ornstein–Uhlenbeck walk whose
// magnitude scales with weather degradation — reproducing the paper's
// observation of position drift during poor weather while VDOP/HDOP stayed
// within 2–8 (§V-C, Fig. 5d).
type GPS struct {
	// NoiseStd is the white noise sigma per axis (meters).
	NoiseStd float64
	// DriftRate scales the bias random walk (m/√s).
	DriftRate float64
	// DriftBound softly caps the bias magnitude via OU mean reversion.
	DriftBound float64

	bias geom.Vec3
	// faultBias is an externally injected receiver bias (fault-injection
	// campaigns: jamming/multipath on demand). It adds to the weather-driven
	// OU walk in Read and Bias, so drift metrics see it too; the zero value
	// keeps both on their historical code path bit for bit.
	faultBias geom.Vec3
	rng       *rand.Rand
}

// NewGPS returns a receiver with the given seed. degradation in [0,1]
// scales drift to the scenario's weather.
func NewGPS(seed int64, degradation float64) *GPS {
	return &GPS{
		NoiseStd:   0.25 + 0.35*degradation,
		DriftRate:  0.02 + 0.45*degradation,
		DriftBound: 0.5 + 4.5*degradation,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Step advances the bias walk by dt.
func (g *GPS) Step(dt float64) {
	if g.DriftBound <= 0 {
		return
	}
	// OU process: mean-reverting random walk.
	theta := 0.02 // reversion rate
	sq := math.Sqrt(dt)
	g.bias = g.bias.
		Add(g.bias.Scale(-theta * dt)).
		Add(geom.V3(
			g.rng.NormFloat64()*g.DriftRate*sq,
			g.rng.NormFloat64()*g.DriftRate*sq,
			g.rng.NormFloat64()*g.DriftRate*sq*0.5,
		))
	g.bias = g.bias.ClampLen(g.DriftBound)
}

// Read returns the measured position for a true position.
func (g *GPS) Read(truth geom.Vec3) geom.Vec3 {
	p := truth.Add(g.bias)
	if g.faultBias != (geom.Vec3{}) {
		p = p.Add(g.faultBias)
	}
	return p.Add(geom.V3(
		g.rng.NormFloat64()*g.NoiseStd,
		g.rng.NormFloat64()*g.NoiseStd,
		g.rng.NormFloat64()*g.NoiseStd*1.5,
	))
}

// Bias exposes the current drift for ground-truth analysis (Fig. 5d),
// including any injected fault bias.
func (g *GPS) Bias() geom.Vec3 {
	if g.faultBias != (geom.Vec3{}) {
		return g.bias.Add(g.faultBias)
	}
	return g.bias
}

// SetFaultBias injects (or clears, with the zero vector) an additional
// receiver bias. RTK does not remove it: an injected drift models an
// interference condition corrections cannot fix.
func (g *GPS) SetFaultBias(b geom.Vec3) { g.faultBias = b }

// EnableRTK switches the receiver to RTK-corrected output: centimeter
// noise and no drift — the base-station mitigation the paper proposes for
// its field GPS problems (§V-C).
func (g *GPS) EnableRTK() {
	g.NoiseStd = 0.02
	g.DriftRate = 0
	g.DriftBound = 0
	g.bias = geom.Vec3{}
}

// IMU provides body velocity with noise and a small bias, standing in for
// the EKF's IMU-derived velocity state. The paper upgraded from a Pixhawk
// 2.4.8 to a Cuav X7+ for better inertial quality; QualityFactor models
// that difference (1 = X7+, ~3 = old Pixhawk).
type IMU struct {
	NoiseStd      float64
	QualityFactor float64
	rng           *rand.Rand
}

// NewIMU returns an IMU model. quality >= 1; larger is worse.
func NewIMU(seed int64, quality float64) *IMU {
	if quality < 1 {
		quality = 1
	}
	return &IMU{NoiseStd: 0.06, QualityFactor: quality, rng: rand.New(rand.NewSource(seed))}
}

// ReadVel returns measured velocity for a true velocity.
func (im *IMU) ReadVel(truth geom.Vec3) geom.Vec3 {
	s := im.NoiseStd * im.QualityFactor
	return truth.Add(geom.V3(
		im.rng.NormFloat64()*s,
		im.rng.NormFloat64()*s,
		im.rng.NormFloat64()*s,
	))
}

// Baro is a barometric altimeter: altitude plus slowly-varying offset.
type Baro struct {
	NoiseStd float64
	offset   float64
	rng      *rand.Rand
}

// NewBaro returns a barometer model.
func NewBaro(seed int64) *Baro {
	return &Baro{NoiseStd: 0.35, rng: rand.New(rand.NewSource(seed))}
}

// Step drifts the pressure offset.
func (b *Baro) Step(dt float64) {
	b.offset += b.rng.NormFloat64() * 0.01 * math.Sqrt(dt)
	b.offset = geom.Clamp(b.offset, -1.5, 1.5)
}

// Read returns measured altitude.
func (b *Baro) Read(truthZ float64) float64 {
	return truthZ + b.offset + b.rng.NormFloat64()*b.NoiseStd
}

// LidarAlt is the TFMini-Plus-class downward rangefinder: precise but
// range-limited, and it measures distance to whatever is below (rooftop,
// canopy), not altitude above the home plane.
type LidarAlt struct {
	MaxRange float64
	NoiseStd float64
	rng      *rand.Rand

	// Fleet overlay (nil outside fleet runs): other drones below the
	// vehicle truncate the measured range. self is excluded.
	ov   *Overlay
	self int32
}

// NewLidarAlt returns a rangefinder model.
func NewLidarAlt(seed int64) *LidarAlt {
	return &LidarAlt{MaxRange: 12, NoiseStd: 0.04, rng: rand.New(rand.NewSource(seed))}
}

// SetOverlay attaches a fleet overlay: other drones below truncate the
// measured range (the rangefinder sees whatever is under the vehicle).
// self is this drone's fleet member ID, excluded from the query. A nil
// overlay (the default) keeps the solo-engine path bit for bit.
func (l *LidarAlt) SetOverlay(ov *Overlay, self int32) {
	l.ov = ov
	l.self = self
}

// Read returns the measured range to the surface below, or ok=false when
// out of range.
//
// The overlay query runs after the world query and before the noise draw,
// so the RNG stream is consumed exactly as in a solo run: an attached but
// empty overlay is bit-identical to no overlay.
func (l *LidarAlt) Read(w *World, pos geom.Vec3) (float64, bool) {
	surface := w.GroundHeightAt(pos.X, pos.Y)
	r := pos.Z - surface
	if l.ov != nil {
		if t, hit := l.ov.Raycast(geom.Ray{Origin: pos, Dir: geom.V3(0, 0, -1)}, l.MaxRange, l.self); hit && t < r {
			r = t
		}
	}
	if r < 0 || r > l.MaxRange {
		return 0, false
	}
	return r + l.rng.NormFloat64()*l.NoiseStd, true
}

// DepthCamera is the forward-facing D435-class stereo depth sensor used
// for obstacle perception. It casts a ray fan and returns body-frame
// points.
type DepthCamera struct {
	// HFOV, VFOV are the fields of view in radians.
	HFOV, VFOV float64
	// Cols, Rows set the (decimated) ray grid resolution.
	Cols, Rows int
	// MaxRange is the usable stereo range.
	MaxRange float64
	// NoiseStd perturbs returned depths.
	NoiseStd float64
	// ErroneousRate is the probability per frame of a spurious cluster —
	// the "erroneous pointclouds" of Fig. 5c. Scaled up by GPS drift in
	// the field profile.
	ErroneousRate float64
	// Fast routes Capture through the column-bundled traversal kernel
	// (fastcapture.go) — part of the fast engine mode. The kernel is
	// bit-identical to the exact capture; off (the zero value), nothing
	// changes.
	Fast bool

	rng *rand.Rand

	// Fleet overlay (nil outside fleet runs): other drones intercept
	// depth rays as dynamic obstacles. self is excluded. The overlay is
	// folded into each ray after the world raycast completes, so the
	// world's RNG draws (soft canopies, range noise ordering) are
	// consumed exactly as in a solo run.
	ov   *Overlay
	self int32

	// Reused per-capture state; a camera belongs to one run and must not
	// be shared across goroutines.
	dirs     []geom.Vec3 // body-frame ray fan, cached per (Rows, Cols, FOV)
	dirsRows int
	dirsCols int
	dirsHFOV float64
	dirsVFOV float64
	buf      []DepthReturn // returned slice backing, reused across frames
	cand     []int32       // candidate tree indices for one soft raycast
	seen     []uint32      // per-tree visit stamps (dedupe across grid cells)
	stamp    uint32

	// Column-bundle scratch for the fast capture kernel (fastcapture.go):
	// flat per-column candidate lists plus their offsets, and building
	// visit stamps (trees reuse seen/stamp above).
	seenB   []uint32
	colTree []int32
	colBld  []int32
	colOff  []int32
}

// SetOverlay attaches a fleet overlay; self is this drone's fleet member
// ID, excluded from every query. A nil overlay (the default) keeps the
// solo-engine capture path bit for bit.
func (d *DepthCamera) SetOverlay(ov *Overlay, self int32) {
	d.ov = ov
	d.self = self
}

// NewDepthCamera returns a D435-like sensor model.
func NewDepthCamera(seed int64) *DepthCamera {
	return &DepthCamera{
		HFOV:     1.5, // ~86 degrees
		VFOV:     1.0, // ~57 degrees
		Cols:     16,
		Rows:     10,
		MaxRange: 10,
		NoiseStd: 0.05,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// DepthReturn is one depth pixel: a body-frame point (x forward, y left,
// z up) and whether it is a real surface return (false = max-range miss,
// point is at max range along the ray).
type DepthReturn struct {
	Point geom.Vec3
	Hit   bool
}

// rayFan returns the cached body-frame ray directions, rebuilding the
// table when the fan geometry changed. The per-direction expressions match
// the historical per-frame computation exactly, so the cached fan is
// bit-identical to recomputing it.
func (d *DepthCamera) rayFan() []geom.Vec3 {
	if d.dirs != nil && d.dirsRows == d.Rows && d.dirsCols == d.Cols &&
		d.dirsHFOV == d.HFOV && d.dirsVFOV == d.VFOV {
		return d.dirs
	}
	d.dirs = d.dirs[:0]
	for r := 0; r < d.Rows; r++ {
		pitch := (float64(r)/float64(d.Rows-1) - 0.5) * d.VFOV
		for c := 0; c < d.Cols; c++ {
			az := (float64(c)/float64(d.Cols-1) - 0.5) * d.HFOV
			// Body-frame direction, x forward.
			d.dirs = append(d.dirs, geom.V3(
				math.Cos(pitch)*math.Cos(az),
				math.Cos(pitch)*math.Sin(az),
				-math.Sin(pitch),
			))
		}
	}
	d.dirsRows, d.dirsCols = d.Rows, d.Cols
	d.dirsHFOV, d.dirsVFOV = d.HFOV, d.VFOV
	return d.dirs
}

// Capture casts the ray fan from the drone pose and returns body-frame
// returns. Tree canopies are soft: rays may pass the outer half of the
// radius, which is how vehicles end up "trapped within the foliage"
// (paper §II-B) — the obstacle is sensed later than its true extent.
//
// The returned slice is owned by the camera and reused by the next
// Capture; callers that need the points past that must copy them.
func (d *DepthCamera) Capture(w *World, pos geom.Vec3, yaw float64) []DepthReturn {
	if d.Fast && d.ov == nil {
		// The fast kernel has no overlay fold; fleet runs stay on the
		// exact path (the fleet runner never enables Fast anyway).
		if out, ok := d.captureFast(w, pos, yaw); ok {
			return out
		}
		// Preconditions unmet (no index, degenerate fan): exact path below,
		// no RNG consumed yet.
	}
	out := d.buf[:0]
	cy, sy := math.Cos(yaw), math.Sin(yaw)
	for _, bd := range d.rayFan() {
		// World-frame.
		wd := geom.V3(bd.X*cy-bd.Y*sy, bd.X*sy+bd.Y*cy, bd.Z)
		ray := geom.Ray{Origin: pos, Dir: wd}
		t, hit := d.raycastSoft(w, ray)
		// Fleet overlay: other drones intercept the ray like any solid.
		// Folded in after the world raycast so the world's soft-canopy RNG
		// draws are untouched; an empty overlay changes nothing.
		if d.ov != nil {
			if to, ok := d.ov.Raycast(ray, d.MaxRange, d.self); ok && (!hit || to < t) {
				t, hit = to, true
			}
		}
		if !hit {
			out = append(out, DepthReturn{Point: bd.Scale(d.MaxRange), Hit: false})
			continue
		}
		t += d.rng.NormFloat64() * d.NoiseStd
		if t < 0.1 {
			t = 0.1
		}
		out = append(out, DepthReturn{Point: bd.Scale(t), Hit: true})
	}
	// Spurious cluster injection (field profile / state-estimate errors).
	out = d.appendSpurious(out)
	d.buf = out
	return out
}

// raycastSoft is World.Raycast with soft tree canopies: returns from the
// outer 50% of a canopy radius are dropped with 35% probability.
//
// The soft-canopy test consumes one RNG draw per tree whose entry hit is
// nearer than the best hit so far, so the indexed path must visit exactly
// the trees the linear reference visits, in the same order. It does:
// candidate trees are deduplicated and processed in ascending tree index —
// the linear scan order — and trees the traversal prunes are provably
// either ray misses or hits beyond the running best, which consume no RNG
// in the linear scan either.
func (d *DepthCamera) raycastSoft(w *World, ray geom.Ray) (float64, bool) {
	best := math.Inf(1)
	if ray.Dir.Z < -1e-12 {
		tg := -ray.Origin.Z / ray.Dir.Z
		if tg >= 0 && tg <= d.MaxRange {
			best = tg
		}
	}
	ix := w.index
	if ix == nil {
		// Linear reference path.
		for i := range w.Buildings {
			if tb, ok := ray.IntersectAABB(w.Buildings[i], d.MaxRange); ok && tb < best {
				best = tb
			}
		}
		best = d.softTrees(w, ray, best, nil)
		if math.IsInf(best, 1) {
			return 0, false
		}
		return best, true
	}

	// One traversal accumulates the building minimum (duplicate candidate
	// visits cannot change a minimum) and gathers deduplicated candidate
	// trees. The walk must not stop before tmax on the building best alone
	// conservatively pruning trees is only sound against the pre-tree best,
	// which is exactly what the running ground+building best is.
	if len(d.seen) < len(w.Trees) {
		d.seen = make([]uint32, len(w.Trees))
	}
	d.stamp++
	if d.stamp == 0 { // wrapped: stale stamps could collide, reset
		for i := range d.seen {
			d.seen[i] = 0
		}
		d.stamp = 1
	}
	d.cand = d.cand[:0]
	wk, ok := ix.startWalk(ray, d.MaxRange)
	if ok {
		for {
			ci, tEntry, more := wk.next()
			if !more || tEntry > best {
				break
			}
			cell := &ix.cells[ci]
			for _, bi := range cell.buildings {
				if tb, hit := ray.IntersectAABB(w.Buildings[bi], d.MaxRange); hit && tb < best {
					best = tb
				}
			}
			for _, ti := range cell.trees {
				if d.seen[ti] != d.stamp {
					d.seen[ti] = d.stamp
					d.cand = append(d.cand, ti)
				}
			}
		}
	}
	slices.Sort(d.cand)
	best = d.softTrees(w, ray, best, d.cand)
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// softTrees runs the soft-canopy tree loop over the given candidate
// indices (nil = all trees) against the post-building best. This is the
// single implementation both the linear and indexed paths share, which is
// what keeps their RNG consumption identical.
func (d *DepthCamera) softTrees(w *World, ray geom.Ray, best float64, cand []int32) float64 {
	n := len(w.Trees)
	if cand != nil {
		n = len(cand)
	}
	for k := 0; k < n; k++ {
		i := k
		if cand != nil {
			i = int(cand[k])
		}
		tt, ok := w.Trees[i].IntersectRay(ray, d.MaxRange)
		if !ok || tt >= best {
			continue
		}
		// Soft canopy: hit point in the outer shell may be see-through.
		p := ray.At(tt)
		tr := w.Trees[i]
		rr := math.Hypot(p.X-tr.Center.X, p.Y-tr.Center.Y)
		if rr > tr.Radius*0.5 && d.rng.Float64() < 0.35 {
			continue
		}
		best = tt
	}
	return best
}

// ColorCamera captures the downward frame used by marker detection. It
// renders with the TRUE pose (the optics do not care about state
// estimates); the perception stack back-projects with the ESTIMATED pose,
// which is how GPS drift becomes marker-position error.
type ColorCamera struct {
	Intrinsics vision.Camera
	// Fast renders the ground texture from a reduced sample lattice,
	// every 4th pixel column of every 2nd pixel row
	// (vision.Scene.FastGround) — part of the tolerance-verified fast
	// engine mode. Markers and occluders stay exact; off (the zero value),
	// frames are bit-identical to the exact renderer.
	Fast bool
	rng  *rand.Rand

	// Reused per-frame capture state: the footprint-filtered sub-world and
	// its per-frame grid index, the scene wrapper, the output frame, and
	// the motion-blur scratch. A camera belongs to one run and must not be
	// shared across goroutines.
	sub       World
	subIndex  spatialIndex
	scene     vision.Scene
	occFn     func(x, y float64) (float64, float64, bool)
	occFreeFn func(x0, y0, x1, y1 float64) bool
	frame     *vision.Image
	blur      *vision.Image
}

// NewColorCamera returns the downward D435i-color-stream stand-in.
func NewColorCamera(seed int64) *ColorCamera {
	return &ColorCamera{Intrinsics: vision.DefaultCamera(), rng: rand.New(rand.NewSource(seed))}
}

// Capture renders a frame from the true pose under the weather's sampled
// conditions.
//
// The returned image is owned by the camera and overwritten by the next
// Capture; callers that need the frame past that must Clone it. (The
// landing system consumes each frame within the tick that produced it.)
func (c *ColorCamera) Capture(w *World, weather Weather, pos geom.Vec3, yaw, speed float64) *vision.Image {
	cam := c.Intrinsics
	cam.Pos = pos
	cam.Yaw = yaw
	// Restrict rendering to the visible footprint (diagonal/2 plus slack).
	radius := cam.GroundFootprint(pos.Z)*0.75 + 3
	w.sceneNearInto(pos, radius, &c.sub)
	c.subIndex.build(&c.sub)
	c.sub.index = &c.subIndex
	c.scene.Ground = vision.GroundTexture{
		Seed:     c.sub.GroundSeed,
		Base:     c.sub.GroundBase,
		Contrast: c.sub.GroundContrast,
	}
	c.scene.Markers = c.sub.Markers
	if c.occFn == nil {
		// Bound once: the method values close over the reused sub-world.
		c.occFn = c.sub.OccluderAt
		c.occFreeFn = c.sub.OccluderFreeRect
	}
	// An empty footprint can never occlude, so skip the per-pixel occluder
	// callback entirely — identical pixels, one indirect call less each.
	// A non-empty footprint still often misses most of the frame's ground
	// rectangle (the filter disk carries corner and slack margin); the
	// renderer culls that case per 16x16-pixel tile through OccluderFree.
	if len(c.sub.Buildings) == 0 && len(c.sub.Trees) == 0 && len(c.sub.Water) == 0 {
		c.scene.OccluderAt = nil
	} else {
		c.scene.OccluderAt = c.occFn
		c.scene.OccluderFree = c.occFreeFn
	}
	if c.frame == nil || c.frame.W != cam.W || c.frame.H != cam.H {
		c.frame = vision.NewImage(cam.W, cam.H)
		c.blur = vision.NewImage(cam.W, cam.H)
	}
	c.scene.FastGround = c.Fast
	c.scene.RenderInto(cam, c.frame)
	cond := weather.FrameConditions(c.rng, speed)
	cond.ApplyReusing(c.frame, pos.Z, c.rng, c.blur)
	return c.frame
}
