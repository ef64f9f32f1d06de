package mapping

import (
	"testing"

	"repro/internal/geom"
)

// TestLocalGridInsertCloud pins the bundled-capture path: one InsertCloud
// call must leave the grid in the same state ray-by-ray insertion would —
// hit endpoints blocked (after inflation), traversed cells free.
func TestLocalGridInsertCloud(t *testing.T) {
	g := NewLocalGrid(geom.V3(20, 20, 10), 0.5, 0.5)
	g.Recenter(geom.V3(0, 0, 5))
	origin := geom.V3(0, 0, 5)
	ends := []geom.Vec3{
		geom.V3(4, 0, 5),
		geom.V3(0, 4, 5),
		geom.V3(-4, 0, 5),
	}
	g.InsertCloud(origin, ends, []bool{true, true, false})

	if !g.Blocked(geom.V3(4, 0, 5)) || !g.Blocked(geom.V3(0, 4, 5)) {
		t.Fatal("hit endpoints not blocked after InsertCloud")
	}
	if g.Blocked(geom.V3(-4, 0, 5)) {
		t.Fatal("miss ray endpoint blocked")
	}
	if g.Blocked(origin) {
		t.Fatal("ray origin blocked")
	}

	// BlockedWithin: a clearance ball that reaches an occupied voxel.
	if !g.BlockedWithin(geom.V3(3, 0, 5), 1.5, 0.5) {
		t.Fatal("clearance query missed the obstacle 1m away")
	}
	if g.BlockedWithin(geom.V3(-2, -2, 5), 0.6, 0.6) {
		t.Fatal("clearance query blocked in free space")
	}
	empty := NewLocalGrid(geom.V3(10, 10, 5), 0.5, 0.5)
	empty.Recenter(geom.V3(0, 0, 2))
	if empty.BlockedWithin(geom.V3(0, 0, 2), 3, 3) {
		t.Fatal("empty grid reports a blocked clearance ball")
	}
}

// TestDenseGridInsertCloud pins the dense map's bundled-capture path.
func TestDenseGridInsertCloud(t *testing.T) {
	g := NewDenseGrid(geom.NewAABB(geom.V3(-10, -10, 0), geom.V3(10, 10, 10)), 0.5, 0.5)
	origin := geom.V3(0, 0, 5)
	g.InsertCloud(origin, []geom.Vec3{geom.V3(5, 0, 5), geom.V3(0, -5, 5)}, []bool{true, false})
	if !g.Blocked(geom.V3(5, 0, 5)) {
		t.Fatal("hit endpoint not blocked")
	}
	if g.Blocked(geom.V3(0, -5, 5)) {
		t.Fatal("miss endpoint blocked")
	}
}

// TestNullMapInserts pins the no-op Map: inserts change nothing and
// nothing is ever blocked.
func TestNullMapInserts(t *testing.T) {
	var m NullMap
	m.InsertCloud(geom.V3(0, 0, 5), []geom.Vec3{geom.V3(4, 0, 5)}, []bool{true})
	if m.Blocked(geom.V3(4, 0, 5)) {
		t.Fatal("NullMap blocked a voxel")
	}
}
