// Package catalog defines the named campaigns once: sil, hil-maxn, hil-5w
// and field, the paper's SIL, HIL (Jetson Nano MAXN and 5 W) and field
// tiers. Each entry owns its grid or flight list, its seed derivation,
// the compute platform it models and the per-run hook that changes its
// results; Spec applies the knobs every campaign shares in one order.
//
// silbench, hilbench, fieldtest and campaignd -serve build their Spec
// here, and a coordinator worker resolves a lease's profile name here
// (Hook), so a campaign flown locally and one flown over the lease
// protocol are the same campaign by construction.
package catalog

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hil"
	"repro/internal/scenario"
	"repro/internal/worldgen"
)

// Grid sizes a campaign. Each entry reads the fields its command has:
// sil the product grid and Systems, the HIL tiers the product grid (they
// fly MLS-V3 only), field the flight count.
type Grid struct {
	Maps, Scenarios, Repeats int
	// Systems selects sil's generations as digits 1-3, optionally
	// comma-separated ("1,3" or "13").
	Systems string
	// Runs is field's number of flights.
	Runs int
}

// Knobs are the timing flags every campaign shares.
type Knobs struct {
	// Pipeline stages perception. sil delivers its results PipelineLag
	// ticks after capture; the hardware tiers derive the lag from their
	// platform's stage cost (hil.DerivePipelinedPlan) and ignore
	// PipelineLag.
	Pipeline    bool
	PipelineLag int
	Fast        bool
	Faults      *fault.Plan
	Fleet       *scenario.FleetSpec
}

// ConfigureFunc is the type of campaign.Spec.Configure.
type ConfigureFunc = func(campaign.Run, *worldgen.Scenario, *core.System, *scenario.RunConfig)

// Campaign is one named campaign.
type Campaign struct {
	// Name is the catalog key, as campaignd -tool takes it.
	Name string
	// Platform and Costs are the compute the campaign flies on. sil flies
	// at native rates and leaves them zero.
	Platform hil.Profile
	Costs    hil.ModuleCosts

	grid    func(Grid) (campaign.Spec, error)
	seed    func(campaign.Cell) int64 // nil: the canonical scenario.GridSeed
	degrade func(*worldgen.Scenario, *scenario.RunConfig)
}

// The catalog, in the order Names lists it.
var (
	SIL = &Campaign{Name: "sil", grid: silGrid}

	HILMAXN = &Campaign{
		Name:     "hil-maxn",
		Platform: hil.JetsonNanoMAXN(), Costs: hil.NanoCosts(),
		grid: hilGrid, seed: hilSeed,
	}

	HIL5W = &Campaign{
		Name:     "hil-5w",
		Platform: hil.JetsonNano5W(), Costs: hil.NanoCosts(),
		grid: hilGrid, seed: hilSeed,
	}

	Field = &Campaign{
		Name:     "field",
		Platform: hil.JetsonNanoMAXN(), Costs: hil.FieldCosts(),
		grid: flightList, seed: fieldSeed, degrade: fieldConditions,
	}

	all = []*Campaign{SIL, HILMAXN, HIL5W, Field}
)

// Names lists the catalog's campaign names.
func Names() []string {
	names := make([]string, len(all))
	for i, c := range all {
		names[i] = c.Name
	}
	return names
}

// Lookup returns the campaign called name.
func Lookup(name string) (*Campaign, error) {
	for _, c := range all {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("unknown campaign %q (want %s)", name, strings.Join(Names(), ", "))
}

// Hook resolves the profile name a lease carries to the Configure hook
// its runs need: nil for "" (sil's plain grid runs), an error for a name
// no campaign carries. Flying a lease without its hook would produce
// wrong-but-plausible digests, so a worker refuses such a lease.
func Hook(profile string) (ConfigureFunc, error) {
	var known []string
	for _, c := range all {
		if c.Profile() == profile {
			return c.Configure(), nil
		}
		if c.Profile() != "" {
			known = append(known, c.Profile())
		}
	}
	return nil, fmt.Errorf("catalog: unknown profile %q (known: %s) — worker build too old?",
		profile, strings.Join(known, ", "))
}

// hardware reports whether the campaign models a compute platform.
func (c *Campaign) hardware() bool { return c.Platform.Name != "" }

// Profile is the name a lease carries so that a worker rebuilds the
// campaign's Configure hook: the campaign's name, or "" for sil, whose
// runs need no hook.
func (c *Campaign) Profile() string {
	if !c.hardware() {
		return ""
	}
	return c.Name
}

// Plan is the platform's compute-budget plan: the cadences Configure
// applies, the CPU demand the tools report, and the inline Timing. Only
// the hardware tiers have one.
func (c *Campaign) Plan() hil.Plan { return hil.DerivePlan(c.Platform, c.Costs) }

// Configure returns the campaign's per-run hook, or nil for sil. The hook
// changes results, so a lease names it (Profile) rather than leaving it
// out: the hardware tiers stretch the replan and guard cadences to the
// platform's budget and charge each run's load to the platform (the
// run's Result.Resources), and field adds the real-world degradations of
// §V-C. The cadences do not depend on -pipeline: hil.DerivePipelinedPlan
// changes only the plan's Timing.
func (c *Campaign) Configure() ConfigureFunc {
	if !c.hardware() {
		return nil
	}
	plan := c.Plan()
	platform := hil.Platform(c.Platform, c.Costs)
	degrade := c.degrade
	return func(_ campaign.Run, sc *worldgen.Scenario, sys *core.System, cfg *scenario.RunConfig) {
		sys.SetReplanInterval(plan.ReplanInterval)
		sys.SetGuardInterval(plan.GuardInterval)
		cfg.Platform = platform
		if degrade != nil {
			degrade(sc, cfg)
		}
	}
}

// Spec builds the campaign on grid g under knobs k. The knobs apply in one
// order: pipeline, fast, faults, fleet, then Timing.Canonical, which folds
// an empty fault plan and a one-drone fleet onto the nominal signature.
// The Spec carries the campaign's Configure hook.
func (c *Campaign) Spec(g Grid, k Knobs) (campaign.Spec, error) {
	spec, err := c.grid(g)
	if err != nil {
		return campaign.Spec{}, err
	}
	spec.Seed = c.seed
	switch {
	case !c.hardware():
		spec.Timing = scenario.SILTiming()
		if k.Pipeline {
			spec.Timing.Pipeline = scenario.PipelineOn
			spec.Timing.PipelineLatencyTicks = k.PipelineLag
		}
	case k.Pipeline:
		spec.Timing = hil.DerivePipelinedPlan(c.Platform, c.Costs).Timing
	default:
		spec.Timing = c.Plan().Timing
	}
	if k.Fast {
		// WithFast keeps a perception latency the pipeline already chose.
		// Fast digests compare only with other fast digests.
		spec.Timing = spec.Timing.WithFast()
	}
	spec.Timing.Faults = k.Faults
	spec.Timing.Fleet = k.Fleet
	spec.Timing = spec.Timing.Canonical()
	spec.Configure = c.Configure()
	return spec, nil
}

// productGrid is the first Maps maps x Scenarios scenarios x Repeats
// repetitions, the grid sil and the HIL tiers sweep.
func productGrid(g Grid) (campaign.Spec, error) {
	if g.Maps < 1 || g.Maps > 10 || g.Scenarios < 1 || g.Scenarios > worldgen.NumScenariosPerMap {
		return campaign.Spec{}, fmt.Errorf("-maps must be 1-10 and -scenarios 1-10")
	}
	if g.Repeats < 1 {
		return campaign.Spec{}, fmt.Errorf("-repeats must be at least 1")
	}
	return campaign.Spec{
		Maps:      campaign.Range(g.Maps),
		Scenarios: campaign.Range(g.Scenarios),
		Repeats:   g.Repeats,
	}, nil
}

func silGrid(g Grid) (campaign.Spec, error) {
	spec, err := productGrid(g)
	if err != nil {
		return spec, err
	}
	spec.Generations, err = parseSystems(g.Systems)
	return spec, err
}

func hilGrid(g Grid) (campaign.Spec, error) {
	spec, err := productGrid(g)
	spec.Generations = []core.Generation{core.V3}
	return spec, err
}

// parseSystems reads sil's -systems: digits 1-3, each at most once, in
// the order the tables print them, optionally separated by commas.
func parseSystems(s string) ([]core.Generation, error) {
	var gens []core.Generation
	for _, r := range s {
		if r == ',' {
			continue
		}
		if r < '1' || r > '3' {
			return nil, fmt.Errorf("-systems %q: %q is not a generation (use digits 1-3, e.g. \"1,3\")", s, r)
		}
		gen := core.Generation(r - '0')
		for _, g := range gens {
			if g == gen {
				return nil, fmt.Errorf("-systems %q selects %s twice", s, gen)
			}
		}
		gens = append(gens, gen)
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("-systems %q selects no generation (use digits 1-3, e.g. \"1,3\")", s)
	}
	return gens, nil
}

// hilSeed is the recorded HIL tables' derivation: the SIL grid's seed
// with a flat +300 in place of its generation term.
func hilSeed(c campaign.Cell) int64 {
	return int64(c.MapIdx)*1_000_003 + int64(c.ScenarioIdx)*9_176 + int64(c.Rep)*77_711 + 300
}

// fieldMaps are the simpler rural and suburban maps the field campaign
// cycled through (limited airspace, §V-C).
var fieldMaps = []int{0, 2, 4, 5}

// flightList is field's explicit run list, not a product grid: flight i
// flies map fieldMaps[i%4] with scenario i%10, and Rep carries i so the
// per-flight seed derivation survives verbatim.
func flightList(g Grid) (campaign.Spec, error) {
	if g.Runs < 1 {
		return campaign.Spec{}, fmt.Errorf("-runs must be at least 1")
	}
	cells := make([]campaign.Cell, g.Runs)
	for i := range cells {
		cells[i] = campaign.Cell{
			Gen:         core.V3,
			MapIdx:      fieldMaps[i%len(fieldMaps)],
			ScenarioIdx: i % worldgen.NumScenariosPerMap,
			Rep:         i,
		}
	}
	return campaign.Spec{Cells: cells}, nil
}

func fieldSeed(c campaign.Cell) int64 { return int64(c.Rep)*104_729 + 77 }

// fieldConditions are the field's real-world degradations: GPS drifts in
// poor weather despite a healthy DOP, ground effect gusts on final, and
// the depth camera returns spurious clusters (Fig. 5c).
func fieldConditions(sc *worldgen.Scenario, cfg *scenario.RunConfig) {
	if sc.Weather.GPSDegradation < 0.5 {
		sc.Weather.GPSDegradation = 0.5
	}
	if sc.Weather.GustStd < 1.0 {
		sc.Weather.GustStd = 1.0
	}
	cfg.ErroneousDepthRate = 0.04
}
