package vision

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestDefaultDictionaryProperties(t *testing.T) {
	d := DefaultDictionary()
	if len(d.Markers) != 8 {
		t.Fatalf("dictionary size = %d", len(d.Markers))
	}
	for i, m := range d.Markers {
		if m.ID != i {
			t.Errorf("marker %d has ID %d", i, m.ID)
		}
		if sd := selfRotDist(m.Code()); sd < d.MinDist {
			t.Errorf("marker %d self-rotation distance %d < %d", i, sd, d.MinDist)
		}
		for j := i + 1; j < len(d.Markers); j++ {
			if dd := minRotDist(m.Code(), d.Markers[j].Code()); dd < d.MinDist {
				t.Errorf("markers %d,%d distance %d < %d", i, j, dd, d.MinDist)
			}
		}
	}
}

func TestDictionaryDeterministic(t *testing.T) {
	a := DefaultDictionary()
	b := DefaultDictionary()
	for i := range a.Markers {
		if a.Markers[i].Code() != b.Markers[i].Code() {
			t.Fatal("dictionary generation not deterministic")
		}
	}
}

func TestNewDictionaryErrors(t *testing.T) {
	if _, err := NewDictionary(0, 4, 1); err == nil {
		t.Error("size 0 should error")
	}
	if _, err := NewDictionary(-2, 4, 1); err == nil {
		t.Error("negative size should error")
	}
	// Impossible request: 5000 codes at distance 8 in 16-bit space.
	if _, err := NewDictionary(5000, 8, 1); err == nil {
		t.Error("impossible dictionary should error")
	}
}

func TestRotate90FourTimesIdentity(t *testing.T) {
	f := func(c uint16) bool {
		r := c
		for i := 0; i < 4; i++ {
			r = rotate90(r)
		}
		return r == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotate90PreservesPopcount(t *testing.T) {
	f := func(c uint16) bool {
		return hamming(rotate90(c), 0) == hamming(c, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHamming(t *testing.T) {
	if got := hamming(0b1010, 0b0110); got != 2 {
		t.Errorf("hamming = %d", got)
	}
	if got := hamming(0xFFFF, 0); got != 16 {
		t.Errorf("hamming full = %d", got)
	}
	if got := hamming(5, 5); got != 0 {
		t.Errorf("hamming self = %d", got)
	}
}

func TestDictionaryMatchExactAndRotated(t *testing.T) {
	d := DefaultDictionary()
	for _, m := range d.Markers {
		id, rot, dist := d.BestMatch(m.Code())
		if id != m.ID || rot != 0 || dist != 0 {
			t.Errorf("exact match failed for %d: id=%d rot=%d dist=%d", m.ID, id, rot, dist)
		}
		// Every rotation still matches the same ID, and reports the
		// quarter turns that bring it back upright.
		r := m.Code()
		for k := 1; k < 4; k++ {
			r = rotate90(r)
			id, rot, dist := d.BestMatch(r)
			if id != m.ID || rot != 4-k || dist != 0 {
				t.Errorf("rotation %d of marker %d matched id=%d rot=%d dist=%d", k, m.ID, id, rot, dist)
			}
		}
	}
}

func TestDictionaryMatchWithBitErrors(t *testing.T) {
	d := DefaultDictionary()
	m := d.Markers[3]
	corrupted := m.Code() ^ 0b1 // one bit flipped
	// Distance 1: accepted within 1 bit error, rejected within 0.
	if id, _, dist := d.BestMatch(corrupted); id != 3 || dist != 1 {
		t.Errorf("1-bit error: id=%d dist=%d, want id 3 at distance 1", id, dist)
	}
}

func TestPatternLayout(t *testing.T) {
	m := DefaultDictionary().Markers[0]
	// Quiet zone is white.
	if v := m.PatternAt(0.02, 0.5); v != 1 {
		t.Errorf("quiet zone = %v", v)
	}
	// Border cells are black. Border occupies [0.10, 0.10+0.8/6).
	if v := m.PatternAt(0.12, 0.5); v > 0.1 {
		t.Errorf("border = %v, want black", v)
	}
	if v := m.PatternAt(0.5, 0.12); v > 0.1 {
		t.Errorf("top border = %v, want black", v)
	}
}

func TestMarkerInstanceContainsGround(t *testing.T) {
	mi := MarkerInstance{
		Marker: DefaultDictionary().Markers[0],
		Center: geom.V3(10, 20, 0),
		Size:   2,
	}
	if _, _, ok := mi.ContainsGround(geom.V3(10, 20, 0)); !ok {
		t.Error("center not on pad")
	}
	u, v, ok := mi.ContainsGround(geom.V3(9, 19, 0))
	if !ok || u != 0 || v != 0 {
		t.Errorf("corner uv = (%v,%v) ok=%v", u, v, ok)
	}
	if _, _, ok := mi.ContainsGround(geom.V3(11.01, 20, 0)); ok {
		t.Error("outside point on pad")
	}
}

func TestMarkerInstanceYaw(t *testing.T) {
	mi := MarkerInstance{
		Marker: DefaultDictionary().Markers[0],
		Center: geom.V3(0, 0, 0),
		Size:   2,
		Yaw:    math.Pi / 4,
	}
	// With 45-degree yaw, the un-rotated corner (1,1) is no longer on the
	// pad (pad corners rotate away), but (sqrt(2)·cos, ...) direction is.
	if _, _, ok := mi.ContainsGround(geom.V3(0.99, 0.99, 0)); ok {
		t.Error("axis-aligned corner should be off rotated pad")
	}
	if _, _, ok := mi.ContainsGround(geom.V3(1.2, 0, 0)); !ok {
		t.Error("rotated pad should extend past 1.0 along x")
	}
}
