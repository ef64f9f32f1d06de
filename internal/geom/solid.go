package geom

import "math"

// AABB is an axis-aligned bounding box. Min must be component-wise less
// than or equal to Max; NewAABB enforces this.
type AABB struct {
	Min, Max Vec3
}

// NewAABB returns the box spanning the two corner points in any order.
func NewAABB(a, b Vec3) AABB {
	return AABB{Min: a.Min(b), Max: a.Max(b)}
}

// Center returns the centroid of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the full extents of the box.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Contains reports whether p lies inside or on the boundary of the box.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Expand returns the box grown by r in every direction.
func (b AABB) Expand(r float64) AABB {
	d := V3(r, r, r)
	return AABB{Min: b.Min.Sub(d), Max: b.Max.Add(d)}
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// ClosestPoint returns the point inside the box closest to p.
func (b AABB) ClosestPoint(p Vec3) Vec3 { return p.Clamp(b.Min, b.Max) }

// Dist returns the distance from p to the box surface, 0 if p is inside.
func (b AABB) Dist(p Vec3) float64 { return b.ClosestPoint(p).Dist(p) }

// IntersectsSphere reports whether a sphere of radius r centered at c
// overlaps the box.
func (b AABB) IntersectsSphere(c Vec3, r float64) bool {
	return b.DistSq(c) <= r*r
}

// DistSq returns the squared distance from p to the box, 0 if inside.
func (b AABB) DistSq(p Vec3) float64 { return b.ClosestPoint(p).DistSq(p) }

// Ray is a half-line with unit or non-unit direction; t-parameters returned
// by intersection routines are in units of Dir length.
type Ray struct {
	Origin, Dir Vec3
}

// At returns the point Origin + t*Dir.
func (r Ray) At(t float64) Vec3 { return r.Origin.Add(r.Dir.Scale(t)) }

// IntersectAABB returns the entry parameter of the ray into the box using
// the slab method. ok is false when the ray misses or the box is behind the
// origin. tmax limits the search distance.
func (r Ray) IntersectAABB(b AABB, tmax float64) (t float64, ok bool) {
	t0, t1 := 0.0, tmax
	for axis := 0; axis < 3; axis++ {
		var o, d, lo, hi float64
		switch axis {
		case 0:
			o, d, lo, hi = r.Origin.X, r.Dir.X, b.Min.X, b.Max.X
		case 1:
			o, d, lo, hi = r.Origin.Y, r.Dir.Y, b.Min.Y, b.Max.Y
		default:
			o, d, lo, hi = r.Origin.Z, r.Dir.Z, b.Min.Z, b.Max.Z
		}
		if math.Abs(d) < 1e-12 {
			if o < lo || o > hi {
				return 0, false
			}
			continue
		}
		inv := 1 / d
		ta := (lo - o) * inv
		tb := (hi - o) * inv
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
		if t0 > t1 {
			return 0, false
		}
	}
	return t0, true
}

// IntersectSphere returns the entry parameter of the ray into a sphere of
// radius rad centered at c, or 0 when the origin already lies inside. ok
// is false when the ray misses within tmax or the sphere is entirely
// behind the origin.
func (r Ray) IntersectSphere(c Vec3, rad, tmax float64) (t float64, ok bool) {
	oc := r.Origin.Sub(c)
	a := r.Dir.LenSq()
	if a < 1e-24 {
		return 0, false
	}
	b := oc.Dot(r.Dir)
	cc := oc.LenSq() - rad*rad
	if cc <= 0 {
		return 0, true // origin inside the sphere
	}
	disc := b*b - a*cc
	if disc < 0 {
		return 0, false
	}
	t = (-b - math.Sqrt(disc)) / a
	if t < 0 || t > tmax {
		return 0, false
	}
	return t, true
}

// Cylinder is a vertical (Z-aligned) cylinder: trees and poles in the
// simulated worlds. BaseZ..TopZ bounds its height.
type Cylinder struct {
	Center      Vec2 // ground-plane center
	Radius      float64
	BaseZ, TopZ float64
}

// Dist returns the distance from p to the cylinder surface, 0 if inside.
func (c Cylinder) Dist(p Vec3) float64 {
	dx, dy := p.X-c.Center.X, p.Y-c.Center.Y
	dr := math.Hypot(dx, dy) - c.Radius
	if dr < 0 {
		dr = 0
	}
	var dz float64
	switch {
	case p.Z < c.BaseZ:
		dz = c.BaseZ - p.Z
	case p.Z > c.TopZ:
		dz = p.Z - c.TopZ
	}
	return math.Hypot(dr, dz)
}

// Bounds returns the AABB enclosing the cylinder.
func (c Cylinder) Bounds() AABB {
	return AABB{
		Min: V3(c.Center.X-c.Radius, c.Center.Y-c.Radius, c.BaseZ),
		Max: V3(c.Center.X+c.Radius, c.Center.Y+c.Radius, c.TopZ),
	}
}

// IntersectRay returns the entry parameter of the ray into the cylinder, or
// ok=false if it misses within tmax. Implemented as an infinite-cylinder
// quadratic solve clipped by the Z slabs plus cap tests.
func (c Cylinder) IntersectRay(r Ray, tmax float64) (t float64, ok bool) {
	// Side surface.
	ox, oy := r.Origin.X-c.Center.X, r.Origin.Y-c.Center.Y
	dx, dy := r.Dir.X, r.Dir.Y
	a := dx*dx + dy*dy
	best := math.Inf(1)
	if a > 1e-12 {
		b := 2 * (ox*dx + oy*dy)
		cc := ox*ox + oy*oy - c.Radius*c.Radius
		disc := b*b - 4*a*cc
		if disc >= 0 {
			sq := math.Sqrt(disc)
			for _, tc := range [2]float64{(-b - sq) / (2 * a), (-b + sq) / (2 * a)} {
				if tc < 0 || tc > tmax {
					continue
				}
				z := r.Origin.Z + tc*r.Dir.Z
				if z >= c.BaseZ && z <= c.TopZ && tc < best {
					best = tc
				}
			}
		}
	}
	// End caps.
	if math.Abs(r.Dir.Z) > 1e-12 {
		for _, zc := range [2]float64{c.BaseZ, c.TopZ} {
			tc := (zc - r.Origin.Z) / r.Dir.Z
			if tc < 0 || tc > tmax || tc >= best {
				continue
			}
			px := r.Origin.X + tc*r.Dir.X - c.Center.X
			py := r.Origin.Y + tc*r.Dir.Y - c.Center.Y
			if px*px+py*py <= c.Radius*c.Radius {
				best = tc
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}
