// Inspection: the infrastructure-inspection workload of the paper's
// introduction — fly a survey pattern around a transmission structure,
// build the octree map from depth returns, then land on the service pad
// at its base.
//
// Unlike the quickstart, this example drives the library modules directly:
// it uses the mapping and planning APIs to plan inspection waypoints
// around the structure, then hands control to the landing system for the
// precision landing. It shows how the substrate packages compose outside
// the benchmark harness.
//
//	go run ./examples/inspection
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/planning"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/vision"
	"repro/internal/worldgen"
)

func main() {
	dict := vision.DefaultDictionary()

	// The site: a 28 m lattice tower (approximated as a slim tall box),
	// two equipment sheds, and the service pad with marker ID 2.
	tower := geom.NewAABB(geom.V3(-28, -23, 0), geom.V3(-22, -17, 28))
	world := &sim.World{
		Bounds: geom.NewAABB(geom.V3(-90, -90, 0), geom.V3(90, 90, 45)),
		Buildings: []geom.AABB{tower,
			geom.NewAABB(geom.V3(12, -6, 0), geom.V3(20, 2, 4)),
			geom.NewAABB(geom.V3(-46, 8, 0), geom.V3(-38, 16, 4)),
		},
		GroundSeed:     99,
		GroundBase:     0.48,
		GroundContrast: 0.22,
	}
	pad := geom.V3(10, 10, 0)
	world.Markers = []vision.MarkerInstance{{
		Marker: dict.Markers[2], Center: pad, Size: 2,
	}}

	// Phase 1 — survey: map the tower with the depth camera from four
	// vantage points, inserting returns into an octree exactly as the
	// onboard perception module would.
	octree := mapping.NewOctree(geom.V3(0, 0, 16), 160, 0.5, 1.0)
	depth := sim.NewDepthCamera(3)
	// Vantages ring the tower inside the depth camera's 10 m range.
	c := tower.Center()
	vantages := []geom.Vec3{
		{X: c.X - 11, Y: c.Y, Z: 10}, {X: c.X, Y: c.Y - 11, Z: 14},
		{X: c.X + 11, Y: c.Y, Z: 18}, {X: c.X, Y: c.Y + 11, Z: 22},
	}
	for _, v := range vantages {
		// Look at the tower from each vantage.
		yaw := tower.Center().Sub(v).Heading()
		for k := 0; k < 5; k++ {
			returns := depth.Capture(world, v, yaw)
			ends := make([]geom.Vec3, len(returns))
			hits := make([]bool, len(returns))
			for i, r := range returns {
				// Body -> world for a yaw-only platform.
				ends[i] = geom.V3(
					r.Point.X*cos(yaw)-r.Point.Y*sin(yaw),
					r.Point.X*sin(yaw)+r.Point.Y*cos(yaw),
					r.Point.Z,
				).Add(v)
				hits[i] = r.Hit
			}
			octree.InsertCloud(v, ends, hits)
		}
	}
	fmt.Printf("Survey complete: %d occupied voxels, octree memory %.0f kB\n",
		octree.OccupiedVoxels(), float64(octree.MemoryBytes())/1e3)

	// Phase 2 — plan the inspection orbit with RRT* on the live map and
	// verify clearance.
	rrt := planning.NewRRTStar(planning.DefaultRRTStarConfig(), 11)
	var orbit []geom.Vec3
	prev := vantages[0]
	for _, next := range append(vantages[1:], vantages[0]) {
		path, err := rrt.Plan(prev, next, octree)
		if err != nil {
			log.Fatalf("orbit leg failed: %v", err)
		}
		if !planning.PathClear(octree, path, 0.3) {
			log.Fatal("orbit leg not collision-free")
		}
		orbit = append(orbit, path...)
		prev = next
	}
	fmt.Printf("Inspection orbit: %d waypoints, %.0f m total, sharpest corner %.0f°\n",
		len(orbit), planning.PathLength(orbit), planning.MaxTurnAngle(orbit)*57.3)

	// Phase 3 — precision landing on the service pad via the full system.
	sc := &worldgen.Scenario{
		Map:        worldgen.MapSpec{Index: -1, Class: worldgen.Rural, Name: "inspection-site"},
		World:      world,
		Weather:    sim.Weather{},
		GPSGoal:    pad.Add(geom.V3(-2, 3, 0)),
		TargetID:   2,
		TrueMarker: pad,
	}
	sys, err := scenario.BuildSystem(core.V3, sc, 5)
	if err != nil {
		log.Fatal(err)
	}
	r := scenario.Run(sc, sys, scenario.DefaultRunConfig(5))
	fmt.Printf("Landing: %s in %.1f s", r.Outcome, r.Duration)
	if r.Landed {
		fmt.Printf(", %.2f m from pad center", r.LandingError)
	}
	fmt.Println()
}

func cos(a float64) float64 { return math.Cos(a) }
func sin(a float64) float64 { return math.Sin(a) }
