package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec3Basics(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, -5, 6)
	if got := a.Add(b); got != V3(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V3(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVec3NormLength(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := V3(x, y, z)
		if !v.IsFinite() || v.Len() == 0 || math.IsInf(v.LenSq(), 0) {
			return true
		}
		return math.Abs(v.Norm().Len()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := (Vec3{}).Norm(); got != (Vec3{}) {
		t.Errorf("Norm of zero = %v, want zero", got)
	}
}

func TestVec3Lerp(t *testing.T) {
	a, b := V3(0, 0, 0), V3(10, 20, 30)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != V3(5, 10, 15) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVec3ClampLen(t *testing.T) {
	v := V3(3, 4, 0)
	if got := v.ClampLen(10); got != v {
		t.Errorf("no-op clamp changed value: %v", got)
	}
	got := v.ClampLen(1)
	if math.Abs(got.Len()-1) > 1e-12 {
		t.Errorf("clamped length = %v, want 1", got.Len())
	}
	// Direction preserved.
	if math.Abs(got.X/got.Y-0.75) > 1e-12 {
		t.Errorf("direction changed: %v", got)
	}
}

func TestVec3HorizDist(t *testing.T) {
	a := V3(0, 0, 100)
	b := V3(3, 4, -50)
	if got := a.HorizDist(b); math.Abs(got-5) > 1e-12 {
		t.Errorf("HorizDist = %v, want 5", got)
	}
}

func TestVec3MinMaxAbs(t *testing.T) {
	a := V3(1, -2, 3)
	b := V3(-1, 2, 3)
	if got := a.Min(b); got != V3(-1, -2, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V3(1, 2, 3) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Abs(); got != V3(1, 2, 3) {
		t.Errorf("Abs = %v", got)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-2.5 * math.Pi, -0.5 * math.Pi},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	f := func(a float64) bool {
		if math.IsNaN(a) || math.Abs(a) > 1e6 {
			return true
		}
		w := WrapAngle(a)
		return w > -math.Pi-1e-9 && w <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeading(t *testing.T) {
	if got := V3(1, 0, 0).Heading(); got != 0 {
		t.Errorf("heading +x = %v", got)
	}
	if got := V3(0, 1, 0).Heading(); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("heading +y = %v", got)
	}
	if got := (Vec3{}).Heading(); got != 0 {
		t.Errorf("heading zero = %v", got)
	}
}

func TestVec2Basics(t *testing.T) {
	a, b := V2(3, 4), V2(1, 1)
	if got := a.Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	if got := a.Sub(b); got != V2(2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dist(b); got != math.Hypot(2, 3) {
		t.Errorf("Dist = %v", got)
	}
}

func TestClampScalar(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 3); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp mid = %v", got)
	}
}
