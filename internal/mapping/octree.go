package mapping

import (
	"math"

	"repro/internal/geom"
)

// Octree log-odds parameters, matching OctoMap's defaults: hits push a cell
// toward occupied faster than misses pull it back, and values are clamped
// so cells can change their mind after a bounded number of contradicting
// observations.
const (
	logOddsHit  = 0.85
	logOddsMiss = -0.4
	logOddsMin  = -2.0
	logOddsMax  = 3.5
	// occupiedThreshold is the log-odds above which a leaf counts as
	// occupied (probability ≈ 0.65).
	occupiedThreshold = 0.6
	// freeThreshold below which a leaf counts as observed-free.
	freeThreshold = -0.2
)

// octNode is one octree node. Leaves have nil children; an inner node's
// logOdds is unused. The zero logOdds on a fresh leaf means "unknown".
type octNode struct {
	children *[8]*octNode
	logOdds  float32
	observed bool
}

// Octree is the OctoMap-style probabilistic occupancy map adopted by
// MLS-V3 (§III-B): hierarchical space partitioning with log-odds updates,
// pruning of homogeneous regions, and O(1) inflated clearance queries via
// a reference-counted inflation layer.
type Octree struct {
	center   geom.Vec3
	halfSize float64
	res      float64
	depth    int
	root     *octNode

	nodes       int
	childArrays int

	occupied voxelTable
	inflated inflationLayer

	scratch cloudScratch
	finger  finger
	// arena chunks amortize node allocation: the tree allocates tens of
	// thousands of small nodes, and individual allocations dominate GC
	// cost otherwise.
	nodeArena  []octNode
	childArena []childBlock
	// free lists recycle pruned nodes and child blocks: expansion/prune
	// churn in steady state would otherwise leak arena chunks and feed GC.
	freeNodes  []*octNode
	freeBlocks []*childBlock
}

type childBlock = [8]*octNode

// NewOctree builds an octree centered at center covering a cube of the
// given half-size, with leaf resolution res and obstacle inflation radius
// inflation.
func NewOctree(center geom.Vec3, halfSize, res, inflation float64) *Octree {
	if res <= 0 {
		res = 0.5
	}
	if halfSize < res {
		halfSize = res
	}
	depth := 0
	for size := res; size < 2*halfSize; size *= 2 {
		depth++
	}
	// Snap the center onto the voxel lattice so octree leaves coincide
	// with the absolute voxel grid used by the occupied/inflated layers.
	center = geom.V3(
		math.Round(center.X/res)*res,
		math.Round(center.Y/res)*res,
		math.Round(center.Z/res)*res,
	)
	o := &Octree{
		center:   center,
		halfSize: math.Ldexp(res, depth) / 2, // snap so leaves are exactly res
		res:      res,
		depth:    depth,
		root:     new(octNode),
		nodes:    1,
		occupied: newVoxelTable(1024),
		inflated: newInflationLayer(res, inflation),
	}
	o.finger.reset(o.root, center, o.halfSize)
	return o
}

// newNode allocates a node from the free list or the arena.
func (o *Octree) newNode() *octNode {
	o.nodes++
	if n := len(o.freeNodes); n > 0 {
		nd := o.freeNodes[n-1]
		o.freeNodes = o.freeNodes[:n-1]
		return nd
	}
	if len(o.nodeArena) == 0 {
		o.nodeArena = make([]octNode, 1024)
	}
	n := &o.nodeArena[0]
	o.nodeArena = o.nodeArena[1:]
	return n
}

// newChildren allocates a child-pointer block from the free list or arena.
func (o *Octree) newChildren() *childBlock {
	o.childArrays++
	if n := len(o.freeBlocks); n > 0 {
		c := o.freeBlocks[n-1]
		o.freeBlocks = o.freeBlocks[:n-1]
		return c
	}
	if len(o.childArena) == 0 {
		o.childArena = make([]childBlock, 256)
	}
	c := &o.childArena[0]
	o.childArena = o.childArena[1:]
	return c
}

// InsertCloud implements Map with per-capture voxel dedup.
func (o *Octree) InsertCloud(origin geom.Vec3, ends []geom.Vec3, hits []bool) {
	o.scratch.collect(o.res, origin, ends, hits)
	for i := range o.scratch.voxels {
		if v := &o.scratch.voxels[i]; !v.occ {
			o.update(v.p, logOddsMiss)
		}
	}
	for i := range o.scratch.voxels {
		if v := &o.scratch.voxels[i]; v.occ {
			o.update(v.p, logOddsHit)
		}
	}
}

// contains reports whether p lies inside the octree cube.
func (o *Octree) contains(p geom.Vec3) bool {
	d := p.Sub(o.center).Abs()
	return d.X <= o.halfSize && d.Y <= o.halfSize && d.Z <= o.halfSize
}

// State implements Map.
func (o *Octree) State(p geom.Vec3) VoxelState {
	if !o.contains(p) {
		return Unknown
	}
	n := o.root
	c := o.center
	half := o.halfSize
	for n.children != nil {
		half /= 2
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
		child := n.children[idx]
		if child == nil {
			return Unknown
		}
		n = child
	}
	if !n.observed {
		return Unknown
	}
	if n.logOdds > occupiedThreshold {
		return Occupied
	}
	if n.logOdds < freeThreshold {
		return Free
	}
	return Unknown
}

// Blocked implements Map: a single brick probe against the reference-
// counted inflation layer.
func (o *Octree) Blocked(p geom.Vec3) bool {
	return o.inflated.has(voxelOf(p, o.res))
}

// InsertRay integrates one depth return: the cells along the segment from
// origin to end are observed free; the end cell is observed occupied when
// hit is true (a surface return) and free otherwise (a max-range miss).
func (o *Octree) InsertRay(origin, end geom.Vec3, hit bool) {
	var w dda
	for w.init(origin, end, o.res); w.more(); w.step() {
		o.update(voxelCenter(w.ix, w.iy, w.iz, o.res), logOddsMiss)
	}
	if hit {
		o.update(end, logOddsHit)
	} else {
		o.update(end, logOddsMiss)
	}
}

// update applies a log-odds delta to the leaf containing p, expanding
// pruned regions on the way down and re-pruning on the way back up.
// The descent reports the resulting leaf value directly, which saves the
// second root-to-leaf descent a State query would cost.
func (o *Octree) update(p geom.Vec3, delta float32) {
	if !o.contains(p) {
		return
	}
	lo, observed := o.updateLeaf(p, delta)

	occ := observed && lo > occupiedThreshold
	ix, iy, iz := voxelOf(p, o.res)
	k := packKey(ix, iy, iz)
	wasOcc := o.occupied.has(int64(k))
	if occ && !wasOcc {
		o.occupied.put(int64(k), 1)
		o.inflated.paint(ix, iy, iz, 1)
	} else if !occ && wasOcc {
		o.occupied.del(int64(k))
		o.inflated.paint(ix, iy, iz, -1)
	}
}

// finger is the root-to-node path of the previous update. Consecutive
// updates of a capture walk neighbouring voxels, so the next descent
// resumes from the deepest finger node whose region holds the new point
// instead of from the root. Each level keeps the node, its cube's center
// and half-size, and the bounds [lo, hi) that the comparisons on the way
// down to it imply: a point reaches the node from the root exactly when
// lo <= p < hi on every axis. The bounds come from the centers actually
// compared, so resuming is exact at any resolution, not only at
// power-of-two ones.
type finger struct {
	n      int // valid levels: node[0] is the root
	node   [maxDepth + 1]*octNode
	center [maxDepth + 1]geom.Vec3
	half   [maxDepth + 1]float64
	lo, hi [maxDepth + 1]geom.Vec3
}

// maxDepth bounds the tree depth for any sane halfSize/res ratio.
const maxDepth = 32

func (f *finger) reset(root *octNode, center geom.Vec3, halfSize float64) {
	inf := math.Inf(1)
	f.n = 1
	f.node[0], f.center[0], f.half[0] = root, center, halfSize
	f.lo[0], f.hi[0] = geom.V3(-inf, -inf, -inf), geom.V3(inf, inf, inf)
}

// resume returns the deepest level whose node the descent for p reaches.
func (f *finger) resume(p geom.Vec3) int {
	l := f.n - 1
	for l > 0 {
		lo, hi := &f.lo[l], &f.hi[l]
		if lo.X <= p.X && p.X < hi.X && lo.Y <= p.Y && p.Y < hi.Y && lo.Z <= p.Z && p.Z < hi.Z {
			break
		}
		l--
	}
	return l
}

// updateLeaf descends to the leaf at max depth, creating and expanding
// nodes as needed, then prunes homogeneous children on the way back up.
// The descent resumes from the finger (see finger): the levels above the
// resume point are inner nodes whose path children exist, so a descent
// from the root would pass them without changing anything. It returns the
// leaf's resulting log-odds and observed flag — the values a State query
// at p would see.
//
// One flag tracks "anything mutated": expansions cascade to the leaf (a
// pushed-down child repeats its parent's failed saturation check), so the
// saturation short-circuit can only fire when no node above it expanded —
// exactly the no-mutation case. A no-change update cannot create prune
// opportunities (the tree is fully pruned after every mutating update), so
// the unwind then skips the sibling-uniformity checks entirely. The unwind
// also stops at the first level that does not prune: a node that stays
// inner keeps every ancestor inner too.
func (o *Octree) updateLeaf(p geom.Vec3, delta float32) (float32, bool) {
	f := &o.finger
	level := f.resume(p)
	n := f.node[level]
	c, half := f.center[level], f.half[level]
	lo, hi := f.lo[level], f.hi[level]
	changed := false
	for level < o.depth {
		if n.children == nil {
			if n.observed {
				// Saturation short-circuit: this pruned region is uniform at
				// n.logOdds; if the clamped update leaves the leaf's value
				// unchanged (log-odds pinned at a clamp bound), the expand →
				// update → re-prune round trip reproduces the exact pre-call
				// tree, so skip it. Steady-state misses through established
				// free space and hits on saturated surfaces all take this path.
				nv := n.logOdds + delta
				if nv > logOddsMax {
					nv = logOddsMax
				}
				if nv < logOddsMin {
					nv = logOddsMin
				}
				if nv == n.logOdds {
					f.n = level + 1
					return n.logOdds, true
				}
			}
			// Expand: push the aggregated value down to fresh children.
			changed = true
			n.children = o.newChildren()
			if n.observed {
				for i := range n.children {
					ch := o.newNode()
					ch.logOdds = n.logOdds
					ch.observed = true
					n.children[i] = ch
				}
			}
		}
		half /= 2
		idx := 0
		if p.X >= c.X {
			idx |= 1
			if c.X > lo.X {
				lo.X = c.X
			}
			c.X += half
		} else {
			if c.X < hi.X {
				hi.X = c.X
			}
			c.X -= half
		}
		if p.Y >= c.Y {
			idx |= 2
			if c.Y > lo.Y {
				lo.Y = c.Y
			}
			c.Y += half
		} else {
			if c.Y < hi.Y {
				hi.Y = c.Y
			}
			c.Y -= half
		}
		if p.Z >= c.Z {
			idx |= 4
			if c.Z > lo.Z {
				lo.Z = c.Z
			}
			c.Z += half
		} else {
			if c.Z < hi.Z {
				hi.Z = c.Z
			}
			c.Z -= half
		}
		child := n.children[idx]
		if child == nil {
			child = o.newNode()
			child.logOdds = 0
			child.observed = false
			n.children[idx] = child
			changed = true
		}
		n = child
		level++
		f.node[level], f.center[level], f.half[level] = n, c, half
		f.lo[level], f.hi[level] = lo, hi
	}
	f.n = level + 1
	wasObs, wasLo := n.observed, n.logOdds
	n.observed = true
	n.logOdds += delta
	if n.logOdds > logOddsMax {
		n.logOdds = logOddsMax
	}
	if n.logOdds < logOddsMin {
		n.logOdds = logOddsMin
	}
	v := n.logOdds
	if changed || !wasObs || n.logOdds != wasLo {
		// A prune frees the nodes below the pruned one: cut the finger
		// back so the next descent never resumes from a recycled node.
		for l := level - 1; l >= 0 && o.tryPrune(f.node[l]); l-- {
			f.n = l + 1
		}
	}
	return v, true
}

// tryPrune collapses n's children into n when all eight exist, are leaves,
// and share identical state, recycling the freed nodes and block. This is
// OctoMap's compression step. It reports whether n was pruned.
func (o *Octree) tryPrune(n *octNode) bool {
	first := n.children[0]
	if first == nil || first.children != nil {
		return false
	}
	for _, ch := range n.children[1:] {
		if ch == nil || ch.children != nil ||
			ch.logOdds != first.logOdds || ch.observed != first.observed {
			return false
		}
	}
	n.logOdds = first.logOdds
	n.observed = first.observed
	for i, ch := range n.children {
		o.freeNodes = append(o.freeNodes, ch)
		n.children[i] = nil
	}
	o.freeBlocks = append(o.freeBlocks, n.children)
	n.children = nil
	o.nodes -= 8
	o.childArrays--
	return true
}

// Resolution implements Map.
func (o *Octree) Resolution() float64 { return o.res }

// MemoryBytes implements Map. Node = 24 bytes (pointer + float + bool with
// padding); child array = 64 bytes; plus the auxiliary hash layers.
func (o *Octree) MemoryBytes() int {
	return o.nodes*24 + o.childArrays*64 + o.occupied.n*16 + o.inflated.n*20
}

// OccupiedVoxels returns the number of voxels currently occupied.
func (o *Octree) OccupiedVoxels() int { return o.occupied.n }

// NodeCount returns the number of allocated tree nodes (compression
// metric for the grid-versus-octree experiment).
func (o *Octree) NodeCount() int { return o.nodes }

var _ Map = (*Octree)(nil)
