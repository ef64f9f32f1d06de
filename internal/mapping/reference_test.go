package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// This file keeps a plain reference for every map's depth fusion and
// inflation layer and holds the production maps to it after every call:
// Go-map dedup, applied misses-then-hits in first-touch order; a closure
// DDA; octree updates that descend from the root for every voxel and try
// to prune at every level on the way back; inflation counts in a Go map
// keyed by voxel.

// walkRay drives the production DDA with a callback: the shape the
// traversal tests are written against.
func walkRay(a, b geom.Vec3, res float64, visit func(ix, iy, iz int) bool) (ex, ey, ez int) {
	var w dda
	for w.init(a, b, res); w.more(); w.step() {
		if !visit(w.ix, w.iy, w.iz) {
			break
		}
	}
	return w.ex, w.ey, w.ez
}

// refWalkRay is the reference traversal: a 3-D Amanatides-Woo DDA calling
// visit for every cell strictly before the one containing b.
func refWalkRay(a, b geom.Vec3, res float64, visit func(ix, iy, iz int)) (ex, ey, ez int) {
	ix, iy, iz := voxelOf(a, res)
	ex, ey, ez = voxelOf(b, res)
	d := b.Sub(a)
	length := d.Len()
	if length == 0 {
		return ex, ey, ez
	}
	dir := d.Scale(1 / length)
	step := func(v float64) int {
		if v > 0 {
			return 1
		}
		if v < 0 {
			return -1
		}
		return 0
	}
	abs := func(v float64) float64 {
		if v < 0 {
			return -v
		}
		return v
	}
	sx, sy, sz := step(dir.X), step(dir.Y), step(dir.Z)
	tMaxFor := func(c, dirC float64, i, s int) float64 {
		if s == 0 {
			return 1e18
		}
		boundary := float64(i) * res
		if s > 0 {
			boundary = float64(i+1) * res
		}
		return (boundary - c) / dirC
	}
	tMaxX, tMaxY, tMaxZ := tMaxFor(a.X, dir.X, ix, sx), tMaxFor(a.Y, dir.Y, iy, sy), tMaxFor(a.Z, dir.Z, iz, sz)
	tDeltaX, tDeltaY, tDeltaZ := 1e18, 1e18, 1e18
	if sx != 0 {
		tDeltaX = res / abs(dir.X)
	}
	if sy != 0 {
		tDeltaY = res / abs(dir.Y)
	}
	if sz != 0 {
		tDeltaZ = res / abs(dir.Z)
	}
	for n := 0; n < int(length/res)*3+16; n++ {
		if ix == ex && iy == ey && iz == ez {
			break
		}
		visit(ix, iy, iz)
		switch {
		case tMaxX <= tMaxY && tMaxX <= tMaxZ:
			ix += sx
			tMaxX += tDeltaX
		case tMaxY <= tMaxZ:
			iy += sy
			tMaxY += tDeltaY
		default:
			iz += sz
			tMaxZ += tDeltaZ
		}
	}
	return ex, ey, ez
}

// refCloud is the reference per-capture dedup: each touched voxel once as
// free (first touch wins), each hit endpoint once as occupied (first hit
// wins), occupied beats free. order lists keys by first touch.
type refCloud struct {
	free, occ map[voxelKey]geom.Vec3
	order     []voxelKey
}

func (c *refCloud) collect(res float64, origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	c.free, c.occ, c.order = map[voxelKey]geom.Vec3{}, map[voxelKey]geom.Vec3{}, nil
	touch := func(k voxelKey) {
		_, f := c.free[k]
		_, o := c.occ[k]
		if !f && !o {
			c.order = append(c.order, k)
		}
	}
	for i, end := range ends {
		refWalkRay(origin, end, res, func(ix, iy, iz int) {
			k := packKey(ix, iy, iz)
			touch(k)
			if _, seen := c.free[k]; !seen {
				c.free[k] = voxelCenter(ix, iy, iz, res)
			}
		})
		k := packKey(voxelOf(end, res))
		touch(k)
		if i < len(hits) && hits[i] {
			if _, seen := c.occ[k]; !seen {
				c.occ[k] = end
			}
		} else if _, seen := c.free[k]; !seen {
			c.free[k] = end
		}
	}
	for k := range c.occ {
		delete(c.free, k)
	}
}

// apply hands every free voxel to miss, then every occupied one to hit.
func (c *refCloud) apply(miss, hit func(k voxelKey, p geom.Vec3)) {
	for _, k := range c.order {
		if p, ok := c.free[k]; ok {
			miss(k, p)
		}
	}
	for _, k := range c.order {
		if p, ok := c.occ[k]; ok {
			hit(k, p)
		}
	}
}

// refInflation is the reference inflation layer: a count per voxel.
type refInflation struct {
	ball   [][3]int
	counts map[voxelKey]int32
}

func (r *refInflation) paint(ix, iy, iz int, delta int32) {
	for _, d := range r.ball {
		k := packKey(ix+d[0], iy+d[1], iz+d[2])
		if v := r.counts[k] + delta; v <= 0 {
			delete(r.counts, k)
		} else {
			r.counts[k] = v
		}
	}
}

func (r *refInflation) blocked(p geom.Vec3, res float64) bool {
	return r.counts[packKey(voxelOf(p, res))] > 0
}

type refNode struct {
	children *[8]*refNode
	logOdds  float32
	observed bool
}

// refOctree is the reference octree: same geometry and log-odds model as
// Octree, with the plain algorithm (no finger, no saturation
// short-circuit, no early stop of the prune unwind).
type refOctree struct {
	center             geom.Vec3
	halfSize, res      float64
	depth              int
	root               *refNode
	nodes, childArrays int
	occupied           map[voxelKey]bool
	infl               refInflation
	cloud              refCloud
}

func newRefOctree(o *Octree) *refOctree {
	return &refOctree{
		center: o.center, halfSize: o.halfSize, res: o.res, depth: o.depth,
		root: &refNode{}, nodes: 1,
		occupied: map[voxelKey]bool{},
		infl:     refInflation{ball: o.inflated.ball, counts: map[voxelKey]int32{}},
	}
}

func (r *refOctree) InsertRay(origin, end geom.Vec3, hit bool) {
	refWalkRay(origin, end, r.res, func(ix, iy, iz int) {
		r.update(voxelCenter(ix, iy, iz, r.res), logOddsMiss)
	})
	if hit {
		r.update(end, logOddsHit)
	} else {
		r.update(end, logOddsMiss)
	}
}

func (r *refOctree) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	r.cloud.collect(r.res, origin, ends, hits)
	r.cloud.apply(
		func(_ voxelKey, p geom.Vec3) { r.update(p, logOddsMiss) },
		func(_ voxelKey, p geom.Vec3) { r.update(p, logOddsHit) })
}

// descend steps from the node centered at c one level toward p.
func descend(p geom.Vec3, c *geom.Vec3, half float64) int {
	idx := 0
	if p.X >= c.X {
		idx |= 1
		c.X += half
	} else {
		c.X -= half
	}
	if p.Y >= c.Y {
		idx |= 2
		c.Y += half
	} else {
		c.Y -= half
	}
	if p.Z >= c.Z {
		idx |= 4
		c.Z += half
	} else {
		c.Z -= half
	}
	return idx
}

func (r *refOctree) contains(p geom.Vec3) bool {
	d := p.Sub(r.center).Abs()
	return d.X <= r.halfSize && d.Y <= r.halfSize && d.Z <= r.halfSize
}

func (r *refOctree) update(p geom.Vec3, delta float32) {
	if !r.contains(p) {
		return
	}
	var path []*refNode
	n, c, half := r.root, r.center, r.halfSize
	for level := 0; level < r.depth; level++ {
		if n.children == nil {
			n.children = new([8]*refNode)
			r.childArrays++
			if n.observed {
				for i := range n.children {
					n.children[i] = &refNode{logOdds: n.logOdds, observed: true}
				}
				r.nodes += 8
			}
		}
		path = append(path, n)
		half /= 2
		idx := descend(p, &c, half)
		if n.children[idx] == nil {
			n.children[idx] = &refNode{}
			r.nodes++
		}
		n = n.children[idx]
	}
	n.observed = true
	n.logOdds += delta
	if n.logOdds > logOddsMax {
		n.logOdds = logOddsMax
	}
	if n.logOdds < logOddsMin {
		n.logOdds = logOddsMin
	}
	occ := n.logOdds > occupiedThreshold
	for i := len(path) - 1; i >= 0; i-- {
		r.tryPrune(path[i])
	}
	ix, iy, iz := voxelOf(p, r.res)
	k := packKey(ix, iy, iz)
	if occ && !r.occupied[k] {
		r.occupied[k] = true
		r.infl.paint(ix, iy, iz, 1)
	} else if !occ && r.occupied[k] {
		delete(r.occupied, k)
		r.infl.paint(ix, iy, iz, -1)
	}
}

func (r *refOctree) tryPrune(n *refNode) {
	first := n.children[0]
	if first == nil || first.children != nil {
		return
	}
	for _, ch := range n.children[1:] {
		if ch == nil || ch.children != nil || ch.logOdds != first.logOdds || ch.observed != first.observed {
			return
		}
	}
	n.logOdds, n.observed, n.children = first.logOdds, first.observed, nil
	r.nodes -= 8
	r.childArrays--
}

func (r *refOctree) State(p geom.Vec3) VoxelState {
	if !r.contains(p) {
		return Unknown
	}
	n, c, half := r.root, r.center, r.halfSize
	for n.children != nil {
		half /= 2
		if n = n.children[descend(p, &c, half)]; n == nil {
			return Unknown
		}
	}
	switch {
	case !n.observed:
		return Unknown
	case n.logOdds > occupiedThreshold:
		return Occupied
	case n.logOdds < freeThreshold:
		return Free
	}
	return Unknown
}

func (r *refOctree) Blocked(p geom.Vec3) bool { return r.infl.blocked(p, r.res) }
func (r *refOctree) MemoryBytes() int {
	return r.nodes*24 + r.childArrays*64 + len(r.occupied)*16 + len(r.infl.counts)*20
}
func (r *refOctree) OccupiedVoxels() int { return len(r.occupied) }

// refLocalGrid is the reference sliding window: the same ring buffer as
// LocalGrid, with Go-map occupancy and inflation.
type refLocalGrid struct {
	g        *LocalGrid // geometry only: res, half, nx/ny/nz, slot, inWindow
	keys     []voxelKey
	states   []VoxelState
	occupied map[voxelKey]bool
	infl     refInflation
	cloud    refCloud
}

func newRefLocalGrid(g *LocalGrid) *refLocalGrid {
	return &refLocalGrid{
		g:    &LocalGrid{res: g.res, half: g.half, nx: g.nx, ny: g.ny, nz: g.nz},
		keys: make([]voxelKey, len(g.keys)), states: make([]VoxelState, len(g.states)),
		occupied: map[voxelKey]bool{},
		infl:     refInflation{ball: g.inflated.ball, counts: map[voxelKey]int32{}},
	}
}

func (r *refLocalGrid) Recenter(center geom.Vec3) {
	r.g.center = center
	lo, hi := center.Sub(r.g.half), center.Add(r.g.half)
	for k := range r.occupied {
		p := keyCenter(k, r.g.res)
		if p.X < lo.X || p.X > hi.X || p.Y < lo.Y || p.Y > hi.Y || p.Z < lo.Z || p.Z > hi.Z {
			delete(r.occupied, k)
			ix, iy, iz := keyIndices(k)
			r.infl.paint(ix, iy, iz, -1)
		}
	}
}

func (r *refLocalGrid) write(ix, iy, iz int, st VoxelState, force bool) {
	if !r.g.inWindow(voxelCenter(ix, iy, iz, r.g.res)) {
		return
	}
	s, k := r.g.slot(ix, iy, iz), packKey(ix, iy, iz)
	prevOccupied := r.keys[s] == k && r.states[s] == Occupied
	if prevOccupied && !force {
		return
	}
	r.keys[s], r.states[s] = k, st
	if st == Occupied && !r.occupied[k] {
		r.occupied[k] = true
		r.infl.paint(ix, iy, iz, 1)
	} else if st != Occupied && prevOccupied {
		delete(r.occupied, k)
		r.infl.paint(ix, iy, iz, -1)
	}
}

func (r *refLocalGrid) InsertRay(origin, end geom.Vec3, hit bool) {
	ex, ey, ez := refWalkRay(origin, end, r.g.res, func(ix, iy, iz int) { r.write(ix, iy, iz, Free, false) })
	if hit {
		r.write(ex, ey, ez, Occupied, true)
	} else {
		r.write(ex, ey, ez, Free, false)
	}
}

func (r *refLocalGrid) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	r.cloud.collect(r.g.res, origin, ends, hits)
	r.cloud.apply(
		func(k voxelKey, _ geom.Vec3) { ix, iy, iz := keyIndices(k); r.write(ix, iy, iz, Free, false) },
		func(k voxelKey, _ geom.Vec3) { ix, iy, iz := keyIndices(k); r.write(ix, iy, iz, Occupied, true) })
}

func (r *refLocalGrid) State(p geom.Vec3) VoxelState {
	if !r.g.inWindow(p) {
		return Unknown
	}
	ix, iy, iz := voxelOf(p, r.g.res)
	if s := r.g.slot(ix, iy, iz); r.keys[s] == packKey(ix, iy, iz) {
		return r.states[s]
	}
	return Unknown
}

func (r *refLocalGrid) Blocked(p geom.Vec3) bool { return r.infl.blocked(p, r.g.res) }
func (r *refLocalGrid) MemoryBytes() int {
	return len(r.keys)*8 + len(r.states) + len(r.occupied)*16 + len(r.infl.counts)*20
}
func (r *refLocalGrid) OccupiedVoxels() int { return len(r.occupied) }

// refDenseGrid feeds a DenseGrid through the reference traversal and
// dedup; the grid's own cell and inflation logic is the reference.
type refDenseGrid struct {
	*DenseGrid
	cloud refCloud
}

func (r *refDenseGrid) InsertRay(origin, end geom.Vec3, hit bool) {
	refWalkRay(origin, end, r.res, func(ix, iy, iz int) { r.markFree(voxelCenter(ix, iy, iz, r.res)) })
	if hit {
		r.setOccupied(end)
	} else {
		r.markFree(end)
	}
}

func (r *refDenseGrid) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	r.cloud.collect(r.res, origin, ends, hits)
	r.cloud.apply(
		func(_ voxelKey, p geom.Vec3) { r.markFree(p) },
		func(_ voxelKey, p geom.Vec3) { r.setOccupied(p) })
}

// fusionMap is the part of Map the reference implements.
type fusionMap interface {
	State(p geom.Vec3) VoxelState
	Blocked(p geom.Vec3) bool
	InsertRay(origin, end geom.Vec3, hit bool)
	InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool)
	MemoryBytes() int
	OccupiedVoxels() int
}

// mapPair is a production map and its reference, fed identically.
type mapPair struct {
	name      string
	got, want fusionMap
	nodes     func() (got, want int)
	recenter  func(geom.Vec3)
}

// referenceOp is one call of a generated sequence: a capture, a single
// ray, or a window recenter.
type referenceOp struct {
	kind   byte // 'c' cloud, 'r' ray, 'w' recenter
	origin geom.Vec3
	ends   []geom.Vec3
	hits   []bool
}

// faceCoord returns a coordinate near c that lies exactly on a voxel face
// (an integer multiple of res) or on one of the literal faces -1, -0.5, 0
// and 0.5.
func faceCoord(rng *rand.Rand, c, res float64) float64 {
	if rng.Intn(4) == 0 {
		return []float64{-1, -0.5, 0, 0.5}[rng.Intn(4)]
	}
	return float64(int(c/res)+rng.Intn(3)-1) * res
}

// referenceOrigin is where generated sequences start: 1.3 m inside the
// octree cube's +X face (see TestFusionMatchesReference).
var referenceOrigin = geom.V3(0.2, 0.3, 0.1)

// referenceOps generates one seed's call sequence: two bursts of six
// captures from one origin each, repeating a base set of rays so free
// space and surfaces saturate and prune, then flipping some of them;
// endpoints exactly on voxel faces
// of both signs; a hit and a miss ending in one voxel; a hit inside a
// voxel another ray passes through; rays leaving the octree cube through
// its +X face; interleaved single rays and window recenters.
func referenceOps(rng *rand.Rand, res float64) []referenceOp {
	var ops []referenceOp
	origin := referenceOrigin
	randEnd := func() geom.Vec3 {
		d := geom.V3(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
		e := origin.Add(d.Scale(0.5 + rng.Float64()*2))
		switch rng.Intn(4) {
		case 0:
			e = geom.V3(faceCoord(rng, e.X, res), faceCoord(rng, e.Y, res), faceCoord(rng, e.Z, res))
		case 1:
			e.Y = faceCoord(rng, e.Y, res)
		}
		return e
	}
	for burst := 0; burst < 2; burst++ {
		if burst > 0 {
			origin = origin.Add(geom.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5))
			ops = append(ops, referenceOp{kind: 'w', origin: origin})
		}
		var base []geom.Vec3
		var baseHits []bool
		for i := 0; i < 16; i++ {
			base = append(base, randEnd())
			baseHits = append(baseHits, rng.Intn(3) != 0)
		}
		for step := 0; step < 6; step++ {
			if step >= 3 {
				// The world changes: a surface appears in saturated free
				// space, another leaves saturated occupied space.
				i := rng.Intn(len(baseHits))
				baseHits[i] = !baseHits[i]
			}
			ends := append([]geom.Vec3(nil), base...)
			hits := append([]bool(nil), baseHits...)
			add := func(e geom.Vec3, hit bool) {
				ends = append(ends, e)
				hits = append(hits, hit)
			}
			for i := 0; i < 6; i++ {
				add(randEnd(), rng.Intn(3) != 0)
			}
			// A hit and a miss ending in one voxel.
			e := ends[rng.Intn(len(ends))]
			add(e, false)
			add(e.Add(geom.V3(res*0.01, 0, 0)), true)
			// A hit inside a voxel the first ray passes through.
			add(origin.Add(ends[0].Sub(origin).Scale(0.5)), true)
			// A ray leaving the octree cube.
			add(origin.Add(geom.V3(1.5+rng.Float64(), rng.Float64()-0.5, rng.Float64()-0.5)), rng.Intn(2) == 0)
			rng.Shuffle(len(ends), func(i, j int) {
				ends[i], ends[j] = ends[j], ends[i]
				hits[i], hits[j] = hits[j], hits[i]
			})
			ops = append(ops, referenceOp{kind: 'c', origin: origin, ends: ends, hits: hits})
			if step%3 == 1 {
				ops = append(ops, referenceOp{kind: 'r', origin: origin, ends: ends[:1], hits: []bool{!hits[0]}})
			}
		}
	}
	return ops
}

// checkPair compares every observable of a map pair after one call: State
// and Blocked at every voxel center of the touched box plus a margin,
// Blocked at random points, and the size accounting.
func checkPair(t *testing.T, rng *rand.Rand, m mapPair, res float64, op referenceOp, call int) {
	t.Helper()
	box := geom.NewAABB(op.origin, op.origin)
	for _, e := range op.ends {
		box = box.Union(geom.NewAABB(e, e))
	}
	margin := geom.V3(1.5, 1.5, 1.5)
	lo, hi := box.Min.Sub(margin), box.Max.Add(margin)
	lx, ly, lz := voxelOf(lo, res)
	hx, hy, hz := voxelOf(hi, res)
	for iz := lz; iz <= hz; iz++ {
		for iy := ly; iy <= hy; iy++ {
			for ix := lx; ix <= hx; ix++ {
				p := voxelCenter(ix, iy, iz, res)
				if g, w := m.got.State(p), m.want.State(p); g != w {
					t.Fatalf("%s call %d: State(%v) = %v, reference %v", m.name, call, p, g, w)
				}
				if g, w := m.got.Blocked(p), m.want.Blocked(p); g != w {
					t.Fatalf("%s call %d: Blocked(%v) = %v, reference %v", m.name, call, p, g, w)
				}
			}
		}
	}
	for i := 0; i < 200; i++ {
		p := op.origin.Add(geom.V3(rng.Float64()*12-6, rng.Float64()*12-6, rng.Float64()*12-6))
		if g, w := m.got.Blocked(p), m.want.Blocked(p); g != w {
			t.Fatalf("%s call %d: Blocked(%v) = %v, reference %v", m.name, call, p, g, w)
		}
	}
	if g, w := m.got.MemoryBytes(), m.want.MemoryBytes(); g != w {
		t.Fatalf("%s call %d: MemoryBytes = %d, reference %d", m.name, call, g, w)
	}
	if g, w := m.got.OccupiedVoxels(), m.want.OccupiedVoxels(); g != w {
		t.Fatalf("%s call %d: OccupiedVoxels = %d, reference %d", m.name, call, g, w)
	}
	if m.nodes != nil {
		if g, w := m.nodes(); g != w {
			t.Fatalf("%s call %d: NodeCount = %d, reference %d", m.name, call, g, w)
		}
	}
}

// TestFusionMatchesReference holds Octree, LocalGrid and DenseGrid to the
// reference fusion over 50 generated call sequences at a power-of-two and
// a non-power-of-two resolution. The octree is 6-7 levels deep, and its
// cube's +X face lies 1.3 m from the sequences' origin.
func TestFusionMatchesReference(t *testing.T) {
	for _, res := range []float64{0.5, 0.3} {
		half := NewOctree(geom.Vec3{}, 16, res, 1.0).halfSize
		center := geom.V3(referenceOrigin.X+1.3-half, 0, 0)
		for seed := int64(0); seed < 50; seed++ {
			t.Run(fmt.Sprintf("res=%v/seed=%d", res, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				o := NewOctree(center, 16, res, 1.0)
				if o.center.X+o.halfSize != referenceOrigin.X+1.3 {
					t.Fatalf("octree +X face at %v", o.center.X+o.halfSize)
				}
				ro := newRefOctree(o)
				lg := NewLocalGrid(geom.V3(6, 6, 5), res, 0.6)
				rl := newRefLocalGrid(lg)
				bounds := geom.NewAABB(geom.V3(-3, -3, -3), geom.V3(4, 3, 3))
				dg := NewDenseGrid(bounds, res, 0.5)
				rd := &refDenseGrid{DenseGrid: NewDenseGrid(bounds, res, 0.5)}
				pairs := []mapPair{
					{name: "Octree", got: o, want: ro, nodes: func() (int, int) { return o.NodeCount(), ro.nodes }},
					{name: "LocalGrid", got: lg, want: rl, recenter: func(c geom.Vec3) { lg.Recenter(c); rl.Recenter(c) }},
					{name: "DenseGrid", got: dg, want: rd},
				}
				pairs[1].recenter(referenceOrigin)
				for call, op := range referenceOps(rng, res) {
					for _, m := range pairs {
						switch op.kind {
						case 'w':
							if m.recenter == nil {
								continue
							}
							m.recenter(op.origin)
						case 'r':
							m.got.InsertRay(op.origin, op.ends[0], op.hits[0])
							m.want.InsertRay(op.origin, op.ends[0], op.hits[0])
						default:
							m.got.InsertCloud(op.origin, op.ends, op.hits)
							m.want.InsertCloud(op.origin, op.ends, op.hits)
						}
						checkPair(t, rng, m, res, op, call)
					}
				}
			})
		}
	}
}

// TestOctreeResumeAfterPrune pins the finger's cut-back: a miss that
// saturates the last voxel of a 4x4x4-voxel node prunes two levels, and
// the hit that follows in the same ray lands inside the pruned node. It
// must expand the live tree, not the nodes the prune just freed.
func TestOctreeResumeAfterPrune(t *testing.T) {
	for _, res := range []float64{0.5, 0.3} {
		a, e := voxelCenter(3, 0, 0, res), voxelCenter(3, 1, 0, res)
		// setup saturates the node's 64 voxels with misses, all but a.
		setup := func(m fusionMap) {
			for n := 0; n < 5; n++ {
				for iz := 0; iz < 4; iz++ {
					for iy := 0; iy < 4; iy++ {
						for ix := 0; ix < 4; ix++ {
							if p := voxelCenter(ix, iy, iz, res); n < 4 || p != a {
								m.InsertRay(p, p, false)
							}
						}
					}
				}
			}
		}
		probe := NewOctree(geom.Vec3{}, 8, res, 1.0)
		setup(probe)
		before := probe.NodeCount()
		if probe.InsertRay(a, a, false); probe.NodeCount() != before-16 {
			t.Fatalf("res %v: saturating a pruned %d nodes, want two levels (16)", res, before-probe.NodeCount())
		}

		o := NewOctree(geom.Vec3{}, 8, res, 1.0)
		r := newRefOctree(o)
		setup(o)
		setup(r)
		o.InsertRay(a, e, true)
		r.InsertRay(a, e, true)
		m := mapPair{name: "Octree", got: o, want: r, nodes: func() (int, int) { return o.NodeCount(), r.nodes }}
		checkPair(t, rand.New(rand.NewSource(1)), m, res, referenceOp{origin: a, ends: []geom.Vec3{e}}, 0)
	}
}
