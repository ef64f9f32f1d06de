package mapping

import "repro/internal/geom"

// voxelTable is an open-addressing hash table from packed voxel keys to
// int32 values, replacing Go maps on the maps' hottest paths: occupancy
// bookkeeping per depth-cloud voxel, and the inflation layer's brick index
// behind every Blocked probe.
//
// Linear probing with backward-shift deletion; capacity is a power of two
// and grows at 3/4 load. All operations are value-deterministic — nothing
// observable depends on insertion history beyond the key/value contents —
// so swapping this in for a map cannot change simulation results.
type voxelTable struct {
	keys []int64 // emptySlot marks a free slot
	vals []int32
	n    int
	mask int
}

const emptySlot = int64(-1) // packKey never produces negative keys

// newVoxelTable returns a table with capacity for hint entries.
func newVoxelTable(hint int) voxelTable {
	capPow := 16
	for capPow*3/4 < hint {
		capPow *= 2
	}
	t := voxelTable{
		keys: make([]int64, capPow),
		vals: make([]int32, capPow),
		mask: capPow - 1,
	}
	for i := range t.keys {
		t.keys[i] = emptySlot
	}
	return t
}

// slot hashes k to its home slot.
func (t *voxelTable) slot(k int64) int { return hashSlot(k, t.mask) }

// hashSlot is the home slot of a key in a power-of-two table.
func hashSlot(k int64, mask int) int {
	return int(uint64(k)*0x9E3779B97F4A7C15>>33) & mask
}

// get returns the value stored under k, 0 when absent.
func (t *voxelTable) get(k int64) int32 {
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		kk := t.keys[i]
		if kk == k {
			return t.vals[i]
		}
		if kk == emptySlot {
			return 0
		}
	}
}

// has reports whether k is present.
func (t *voxelTable) has(k int64) bool {
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		kk := t.keys[i]
		if kk == k {
			return true
		}
		if kk == emptySlot {
			return false
		}
	}
}

// put stores v under k (v must be non-zero; zero means absent).
func (t *voxelTable) put(k int64, v int32) {
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		kk := t.keys[i]
		if kk == k {
			t.vals[i] = v
			return
		}
		if kk == emptySlot {
			t.keys[i] = k
			t.vals[i] = v
			t.n++
			return
		}
	}
}

// del removes k if present, backward-shifting the probe chain so lookups
// never need tombstones.
func (t *voxelTable) del(k int64) {
	i := t.slot(k)
	for {
		kk := t.keys[i]
		if kk == emptySlot {
			return
		}
		if kk == k {
			break
		}
		i = (i + 1) & t.mask
	}
	t.n--
	for {
		t.keys[i] = emptySlot
		j := i
		for {
			j = (j + 1) & t.mask
			kk := t.keys[j]
			if kk == emptySlot {
				return
			}
			// kk may fill the hole only if its home slot does not lie in
			// the (cyclic) open interval (i, j] — otherwise moving it would
			// break its own probe chain.
			home := t.slot(kk)
			if (j-home)&t.mask >= (j-i)&t.mask {
				t.keys[i] = kk
				t.vals[i] = t.vals[j]
				i = j
				break
			}
		}
	}
}

// grow doubles capacity and rehashes.
func (t *voxelTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]int64, len(oldKeys)*2)
	t.vals = make([]int32, len(oldVals)*2)
	t.mask = len(t.keys) - 1
	t.n = 0
	for i := range t.keys {
		t.keys[i] = emptySlot
	}
	for i, k := range oldKeys {
		if k != emptySlot {
			t.put(k, oldVals[i])
		}
	}
}

// inflationLayer reference-counts every voxel within the inflation radius
// of an occupied voxel. Counts live in 4×4×4 bricks, each with a 64-bit
// mask of the voxels whose count is non-zero, so a Blocked probe is one
// lookup in a table of bricks — far smaller than a table of voxels.
type inflationLayer struct {
	ball   [][3]int    // voxel offsets painted around an occupied voxel
	index  voxelTable  // brick key -> 1 + the brick's position below
	keys   []int64     // per brick: its key
	bits   []uint64    // per brick: voxels with a non-zero count
	counts [][64]int32 // per brick: the counts
	n      int         // voxels with a non-zero count
}

// newInflationLayer returns an empty layer whose ball holds every voxel
// offset within inflation + res of the occupied voxel.
func newInflationLayer(res, inflation float64) inflationLayer {
	l := inflationLayer{index: newVoxelTable(4096)}
	r := int(inflation/res) + 1
	rr := inflation + res
	for dz := -r; dz <= r; dz++ {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				d := geom.V3(float64(dx), float64(dy), float64(dz)).Scale(res)
				if d.LenSq() <= rr*rr {
					l.ball = append(l.ball, [3]int{dx, dy, dz})
				}
			}
		}
	}
	return l
}

// brickOf returns the key of the brick holding a voxel and the voxel's bit
// within it.
func brickOf(ix, iy, iz int) (int64, uint) {
	return int64(packKey(ix>>2, iy>>2, iz>>2)), uint(ix&3 | (iy&3)<<2 | (iz&3)<<4)
}

// has reports whether the voxel's count is non-zero.
func (l *inflationLayer) has(ix, iy, iz int) bool {
	k, bit := brickOf(ix, iy, iz)
	i := l.index.get(k)
	return i > 0 && l.bits[i-1]>>bit&1 != 0
}

// paint adds delta to the count of every voxel in the ball around
// (ix, iy, iz). A count that would drop to zero or below is removed.
func (l *inflationLayer) paint(ix, iy, iz int, delta int32) {
	for _, d := range l.ball {
		k, bit := brickOf(ix+d[0], iy+d[1], iz+d[2])
		i := int(l.index.get(k)) - 1
		if i < 0 {
			if delta <= 0 {
				continue
			}
			i = len(l.keys)
			l.keys = append(l.keys, k)
			l.bits = append(l.bits, 0)
			l.counts = append(l.counts, [64]int32{})
			l.index.put(k, int32(i+1))
		}
		set := l.bits[i]>>bit&1 != 0
		if c := l.counts[i][bit] + delta; c > 0 {
			l.counts[i][bit] = c
			if !set {
				l.bits[i] |= 1 << bit
				l.n++
			}
		} else if set {
			l.counts[i][bit] = 0
			l.bits[i] &^= 1 << bit
			l.n--
			if l.bits[i] == 0 {
				l.removeBrick(i)
			}
		}
	}
}

// removeBrick drops the empty brick at position i, moving the last brick
// into its place.
func (l *inflationLayer) removeBrick(i int) {
	l.index.del(l.keys[i])
	last := len(l.keys) - 1
	if i != last {
		l.keys[i], l.bits[i], l.counts[i] = l.keys[last], l.bits[last], l.counts[last]
		l.index.put(l.keys[i], int32(i+1))
	}
	l.keys, l.bits, l.counts = l.keys[:last], l.bits[:last], l.counts[:last]
}
