// Package geom provides the small linear-algebra and solid-geometry kernel
// shared by the simulator, mapping, and planning modules: 3-D and 2-D
// vectors, axis-aligned boxes, vertical cylinders, rays, and the
// intersection predicates the collision and sensing code paths need.
// Rotations are yaw-only (the airframe and its cameras turn about +Z), so
// callers apply them with math.Cos and math.Sin directly.
//
// All types are plain values; the zero value of every type is meaningful
// and no function in this package panics on finite inputs.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a 3-D vector or point. X and Y span the ground plane; Z is up.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is shorthand for constructing a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v · o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// LenSq returns the squared Euclidean norm of v.
func (v Vec3) LenSq() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and o.
func (v Vec3) Dist(o Vec3) float64 { return v.Sub(o).Len() }

// DistSq returns the squared Euclidean distance between v and o.
func (v Vec3) DistSq(o Vec3) float64 { return v.Sub(o).LenSq() }

// HorizDist returns the distance between v and o projected onto the ground
// plane (Z ignored). Landing accuracy in the paper is reported this way.
func (v Vec3) HorizDist(o Vec3) float64 {
	dx, dy := v.X-o.X, v.Y-o.Y
	return math.Hypot(dx, dy)
}

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged so callers need not special-case degenerate directions.
func (v Vec3) Norm() Vec3 {
	l := v.Len()
	if l == 0 {
		return Vec3{}
	}
	return v.Scale(1 / l)
}

// Lerp linearly interpolates from v to o by t in [0,1].
func (v Vec3) Lerp(o Vec3, t float64) Vec3 {
	return Vec3{
		X: v.X + (o.X-v.X)*t,
		Y: v.Y + (o.Y-v.Y)*t,
		Z: v.Z + (o.Z-v.Z)*t,
	}
}

// Clamp returns v with each component clamped to [lo, hi] component-wise.
func (v Vec3) Clamp(lo, hi Vec3) Vec3 {
	return Vec3{
		X: clamp(v.X, lo.X, hi.X),
		Y: clamp(v.Y, lo.Y, hi.Y),
		Z: clamp(v.Z, lo.Z, hi.Z),
	}
}

// ClampLen returns v shortened to at most maxLen, preserving direction.
func (v Vec3) ClampLen(maxLen float64) Vec3 {
	l := v.Len()
	if l <= maxLen || l == 0 {
		return v
	}
	return v.Scale(maxLen / l)
}

// Abs returns the component-wise absolute value of v.
func (v Vec3) Abs() Vec3 {
	return Vec3{math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)}
}

// Min returns the component-wise minimum of v and o.
func (v Vec3) Min(o Vec3) Vec3 {
	return Vec3{math.Min(v.X, o.X), math.Min(v.Y, o.Y), math.Min(v.Z, o.Z)}
}

// Max returns the component-wise maximum of v and o.
func (v Vec3) Max(o Vec3) Vec3 {
	return Vec3{math.Max(v.X, o.X), math.Max(v.Y, o.Y), math.Max(v.Z, o.Z)}
}

// IsFinite reports whether every component of v is finite.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// ApproxEq reports whether v and o differ by at most eps in every component.
func (v Vec3) ApproxEq(o Vec3, eps float64) bool {
	return math.Abs(v.X-o.X) <= eps &&
		math.Abs(v.Y-o.Y) <= eps &&
		math.Abs(v.Z-o.Z) <= eps
}

// WithZ returns v with its Z component replaced by z.
func (v Vec3) WithZ(z float64) Vec3 { return Vec3{v.X, v.Y, z} }

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

// Heading returns the ground-plane heading of v in radians, measured from
// the +X axis toward +Y. The zero vector yields 0.
func (v Vec3) Heading() float64 {
	if v.X == 0 && v.Y == 0 {
		return 0
	}
	return math.Atan2(v.Y, v.X)
}

// Vec2 is a 2-D vector used for image-plane coordinates (pixels).
type Vec2 struct {
	X, Y float64
}

// V2 is shorthand for constructing a Vec2.
func V2(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Len returns the Euclidean norm of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and o.
func (v Vec2) Dist(o Vec2) float64 { return v.Sub(o).Len() }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 { return clamp(x, lo, hi) }

// WrapAngle normalizes an angle in radians to (-pi, pi].
func WrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
