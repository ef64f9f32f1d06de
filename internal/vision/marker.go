package vision

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// GridBits is the side length of the inner bit grid of a marker (ArUco
// 4x4-style: 16 data bits inside a one-cell black border).
const GridBits = 4

// cells is the full marker side length in cells including the border.
const cells = GridBits + 2

// Marker is one fiducial: a 4x4 bit code inside a black border, printed on
// a white pad, matching the ArUco markers the paper lands on.
type Marker struct {
	ID   int
	Bits [GridBits * GridBits]bool // row-major, true = white cell
}

// BitAt returns the bit at grid cell (bx, by) of the inner 4x4 code.
func (m Marker) BitAt(bx, by int) bool {
	if bx < 0 || by < 0 || bx >= GridBits || by >= GridBits {
		return false
	}
	return m.Bits[by*GridBits+bx]
}

// Code packs the bits row-major into a uint16 (bit 0 = cell (0,0)).
func (m Marker) Code() uint16 {
	var c uint16
	for i, b := range m.Bits {
		if b {
			c |= 1 << uint(i)
		}
	}
	return c
}

// rotate90 returns the code rotated a quarter turn clockwise.
func rotate90(code uint16) uint16 {
	var out uint16
	for y := 0; y < GridBits; y++ {
		for x := 0; x < GridBits; x++ {
			if code&(1<<uint(y*GridBits+x)) != 0 {
				// (x, y) -> (GridBits-1-y, x)
				nx, ny := GridBits-1-y, x
				out |= 1 << uint(ny*GridBits+nx)
			}
		}
	}
	return out
}

// hamming returns the number of differing bits between two codes.
func hamming(a, b uint16) int {
	x := a ^ b
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// rotations returns the four rotational variants of a code.
func rotations(code uint16) [4]uint16 {
	var r [4]uint16
	r[0] = code
	for i := 1; i < 4; i++ {
		r[i] = rotate90(r[i-1])
	}
	return r
}

// minRotDist returns the minimum Hamming distance between any rotation of a
// and any rotation of b.
func minRotDist(a, b uint16) int {
	ra, rb := rotations(a), rotations(b)
	best := GridBits*GridBits + 1
	for _, x := range ra {
		for _, y := range rb {
			if d := hamming(x, y); d < best {
				best = d
			}
		}
	}
	return best
}

// selfRotDist returns the minimum Hamming distance between a code and its
// own non-identity rotations — high values remove rotational ambiguity.
func selfRotDist(code uint16) int {
	r := rotations(code)
	best := GridBits*GridBits + 1
	for i := 1; i < 4; i++ {
		if d := hamming(r[0], r[i]); d < best {
			best = d
		}
	}
	return best
}

// Dictionary is a set of mutually distant marker codes, like an ArUco
// predefined dictionary.
type Dictionary struct {
	Markers []Marker
	// MinDist is the guaranteed minimum rotation-invariant Hamming
	// distance between any two dictionary entries.
	MinDist int
}

// NewDictionary generates a deterministic dictionary of n markers whose
// codes are at least minDist apart under rotation and at least minDist from
// their own rotations. It panics only if the request is impossible for the
// 16-bit code space (n too large for minDist); the defaults used by the
// system (n=8, minDist=4) always succeed.
func NewDictionary(n, minDist int, seed int64) (*Dictionary, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vision: dictionary size must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Dictionary{MinDist: minDist}
	var codes []uint16
	const maxAttempts = 200000
	for attempt := 0; attempt < maxAttempts && len(codes) < n; attempt++ {
		c := uint16(rng.Intn(1 << (GridBits * GridBits)))
		if selfRotDist(c) < minDist {
			continue
		}
		ok := true
		for _, prev := range codes {
			if minRotDist(prev, c) < minDist {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		codes = append(codes, c)
	}
	if len(codes) < n {
		return nil, fmt.Errorf("vision: could not generate %d markers with min distance %d", n, minDist)
	}
	for id, c := range codes {
		m := Marker{ID: id}
		for i := 0; i < GridBits*GridBits; i++ {
			m.Bits[i] = c&(1<<uint(i)) != 0
		}
		d.Markers = append(d.Markers, m)
	}
	return d, nil
}

// DefaultDictionary returns the 8-marker dictionary used throughout the
// reproduction. Generation is deterministic, so every module sees the same
// codes.
func DefaultDictionary() *Dictionary {
	d, err := NewDictionary(8, 4, 20250521)
	if err != nil {
		// Cannot happen for these parameters; treated as a programming
		// error per the "panic only on impossible states" guideline.
		panic("vision: default dictionary generation failed: " + err.Error())
	}
	return d
}

// BestMatch returns the dictionary entry with minimum rotation-searched
// Hamming distance to the observed code, along with that distance. The
// dictionary is never empty, so a best entry always exists.
func (d *Dictionary) BestMatch(observed uint16) (id, rot, dist int) {
	bestDist := GridBits*GridBits + 1
	bestID, bestRot := 0, 0
	for _, m := range d.Markers {
		code := m.Code()
		r := observed
		for rotIdx := 0; rotIdx < 4; rotIdx++ {
			if dd := hamming(code, r); dd < bestDist {
				bestDist = dd
				bestID = m.ID
				bestRot = rotIdx
			}
			r = rotate90(r)
		}
	}
	return bestID, bestRot, bestDist
}

// PatternAt evaluates the printed marker pattern at normalized pad
// coordinates (u, v) in [0,1]^2 where the pad includes a white quiet zone
// around the black border. Layout (fractions of the pad side):
//
//	[0.00, 0.10) white quiet zone
//	[0.10, 0.90) 6x6 cell grid: 1-cell black border + 4x4 code
//	[0.90, 1.00] white quiet zone
//
// Returns intensity in [0,1].
func (m Marker) PatternAt(u, v float64) float64 {
	const quiet = 0.10
	if u < quiet || u >= 1-quiet || v < quiet || v >= 1-quiet {
		return 1 // white quiet zone
	}
	gu := (u - quiet) / (1 - 2*quiet) * cells
	gv := (v - quiet) / (1 - 2*quiet) * cells
	cx, cy := int(gu), int(gv)
	if cx < 0 || cy < 0 || cx >= cells || cy >= cells {
		return 1
	}
	if cx == 0 || cy == 0 || cx == cells-1 || cy == cells-1 {
		return 0.05 // black border
	}
	if m.BitAt(cx-1, cy-1) {
		return 0.95
	}
	return 0.05
}

// MarkerInstance places a marker in the world: a flat pad on the ground.
type MarkerInstance struct {
	Marker Marker
	Center geom.Vec3 // pad center on the ground (Z = ground height)
	Size   float64   // pad side length in meters (including quiet zone)
	Yaw    float64   // rotation about +Z in radians
}

// ContainsGround reports whether the ground point p falls on the pad, and
// if so returns the pad-local normalized coordinates.
func (mi MarkerInstance) ContainsGround(p geom.Vec3) (u, v float64, ok bool) {
	return mi.ContainsGroundRot(p, math.Cos(-mi.Yaw), math.Sin(-mi.Yaw))
}

// ContainsGroundRot is ContainsGround with the pad's rotation terms
// precomputed by the caller. Render loops hoist math.Cos(-mi.Yaw) and
// math.Sin(-mi.Yaw) out of their per-pixel loop and pass them here, which
// keeps the result bit-identical to ContainsGround (same operands, same
// operation order) while dropping two trig calls per tested pixel.
func (mi MarkerInstance) ContainsGroundRot(p geom.Vec3, cos, sin float64) (u, v float64, ok bool) {
	d := p.Sub(mi.Center)
	lx := d.X*cos - d.Y*sin
	ly := d.X*sin + d.Y*cos
	h := mi.Size / 2
	if lx < -h || lx > h || ly < -h || ly > h {
		return 0, 0, false
	}
	return (lx + h) / mi.Size, (ly + h) / mi.Size, true
}
