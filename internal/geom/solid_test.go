package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestAABBContains(t *testing.T) {
	b := NewAABB(V3(0, 0, 0), V3(10, 10, 10))
	if !b.Contains(V3(5, 5, 5)) {
		t.Error("center not contained")
	}
	if !b.Contains(V3(0, 0, 0)) || !b.Contains(V3(10, 10, 10)) {
		t.Error("boundary not contained")
	}
	if b.Contains(V3(-0.01, 5, 5)) || b.Contains(V3(5, 5, 10.01)) {
		t.Error("outside point contained")
	}
}

func TestNewAABBOrdersCorners(t *testing.T) {
	b := NewAABB(V3(10, -5, 3), V3(-2, 7, 1))
	if b.Min != V3(-2, -5, 1) || b.Max != V3(10, 7, 3) {
		t.Errorf("corners not ordered: %+v", b)
	}
}

func TestAABBDistAndSphere(t *testing.T) {
	b := NewAABB(V3(0, 0, 0), V3(2, 2, 2))
	if d := b.Dist(V3(1, 1, 1)); d != 0 {
		t.Errorf("inside dist = %v", d)
	}
	if d := b.Dist(V3(5, 1, 1)); math.Abs(d-3) > 1e-12 {
		t.Errorf("outside dist = %v, want 3", d)
	}
	if !b.IntersectsSphere(V3(5, 1, 1), 3.0) {
		t.Error("tangent sphere should intersect")
	}
	if b.IntersectsSphere(V3(5, 1, 1), 2.9) {
		t.Error("distant sphere should not intersect")
	}
}

func TestAABBCenterSize(t *testing.T) {
	b := NewAABB(V3(-1, -1, -1), V3(3, 5, 7))
	if b.Center() != V3(1, 2, 3) {
		t.Errorf("center %v", b.Center())
	}
	if b.Size() != V3(4, 6, 8) {
		t.Errorf("size %v", b.Size())
	}
}

func TestRayAABB(t *testing.T) {
	b := NewAABB(V3(2, -1, -1), V3(4, 1, 1))
	r := Ray{Origin: V3(0, 0, 0), Dir: V3(1, 0, 0)}
	tHit, ok := r.IntersectAABB(b, 100)
	if !ok || math.Abs(tHit-2) > 1e-12 {
		t.Errorf("hit = %v ok=%v, want t=2", tHit, ok)
	}
	// Miss above.
	r2 := Ray{Origin: V3(0, 0, 5), Dir: V3(1, 0, 0)}
	if _, ok := r2.IntersectAABB(b, 100); ok {
		t.Error("ray should miss")
	}
	// Behind origin.
	r3 := Ray{Origin: V3(10, 0, 0), Dir: V3(1, 0, 0)}
	if _, ok := r3.IntersectAABB(b, 100); ok {
		t.Error("box behind origin should not hit")
	}
	// Origin inside: entry t = 0.
	r4 := Ray{Origin: V3(3, 0, 0), Dir: V3(1, 0, 0)}
	tHit, ok = r4.IntersectAABB(b, 100)
	if !ok || tHit != 0 {
		t.Errorf("inside origin: t=%v ok=%v", tHit, ok)
	}
	// Range-limited.
	if _, ok := r.IntersectAABB(b, 1.5); ok {
		t.Error("tmax should cut off the hit")
	}
}

func TestRayAABBRandomConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewAABB(V3(-2, -3, -1), V3(2, 3, 4))
	for i := 0; i < 500; i++ {
		o := V3(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
		d := V3(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1).Norm()
		if d == (Vec3{}) {
			continue
		}
		r := Ray{Origin: o, Dir: d}
		if tHit, ok := r.IntersectAABB(b, 100); ok {
			p := r.At(tHit)
			if b.Expand(1e-6).Dist(p) > 1e-6 {
				t.Fatalf("hit point %v not on box (t=%v)", p, tHit)
			}
		} else if b.Contains(o) {
			t.Fatalf("origin inside box %v but no hit", o)
		}
	}
}

func TestCylinderContainsDist(t *testing.T) {
	c := Cylinder{Center: V2(0, 0), Radius: 2, BaseZ: 0, TopZ: 10}
	if d := c.Dist(V3(1, 1, 5)); d != 0 {
		t.Errorf("inside point not contained: dist %v", d)
	}
	if c.Dist(V3(3, 0, 5)) == 0 {
		t.Error("radial outside contained")
	}
	if c.Dist(V3(0, 0, 11)) == 0 {
		t.Error("above top contained")
	}
	if d := c.Dist(V3(5, 0, 5)); math.Abs(d-3) > 1e-12 {
		t.Errorf("radial dist = %v", d)
	}
	if d := c.Dist(V3(0, 0, 13)); math.Abs(d-3) > 1e-12 {
		t.Errorf("vertical dist = %v", d)
	}
	if d := c.Dist(V3(0, 0, 5)); d != 0 {
		t.Errorf("inside dist = %v", d)
	}
}

func TestCylinderRay(t *testing.T) {
	c := Cylinder{Center: V2(5, 0), Radius: 1, BaseZ: 0, TopZ: 10}
	r := Ray{Origin: V3(0, 0, 5), Dir: V3(1, 0, 0)}
	tHit, ok := c.IntersectRay(r, 100)
	if !ok || math.Abs(tHit-4) > 1e-9 {
		t.Errorf("side hit t=%v ok=%v, want 4", tHit, ok)
	}
	// From above through the cap.
	r2 := Ray{Origin: V3(5, 0, 20), Dir: V3(0, 0, -1)}
	tHit, ok = c.IntersectRay(r2, 100)
	if !ok || math.Abs(tHit-10) > 1e-9 {
		t.Errorf("cap hit t=%v ok=%v, want 10", tHit, ok)
	}
	// Above the top, horizontal: miss.
	r3 := Ray{Origin: V3(0, 0, 15), Dir: V3(1, 0, 0)}
	if _, ok := c.IntersectRay(r3, 100); ok {
		t.Error("should miss above cylinder")
	}
	// Bounds box should contain hit points.
	b := c.Bounds()
	if !b.Contains(r.At(4)) {
		t.Error("bounds should contain side hit")
	}
}

func TestAABBUnion(t *testing.T) {
	a := NewAABB(V3(0, 0, 0), V3(1, 1, 1))
	b := NewAABB(V3(2, -1, 0), V3(3, 0.5, 2))
	u := a.Union(b)
	if u.Min != V3(0, -1, 0) || u.Max != V3(3, 1, 2) {
		t.Errorf("union = %+v", u)
	}
}
