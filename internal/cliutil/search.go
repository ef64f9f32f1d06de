package cliutil

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/faultsearch"
)

// SearchFlags bundles the adversarial fault-search flags (silbench
// -fault-search; registered separately from CampaignFlags because only
// tools that expose the search surface want them).
type SearchFlags struct {
	// Search is the model selection: "all", a model name, or a
	// comma-separated list. Empty means fault search is off.
	Search string
	// Cell pins the searched grid cell as map:scenario:rep.
	Cell string
	// JSON, when set, writes the frontier table to this file.
	JSON string
	// Quick selects the coarse search tolerances the committed frontier
	// tables and the CI smoke use.
	Quick bool
}

// RegisterSearch installs the fault-search flags on fs.
func RegisterSearch(fs *flag.FlagSet) *SearchFlags {
	f := &SearchFlags{}
	fs.StringVar(&f.Search, "fault-search", "",
		"search for minimal failure-inducing fault plans: \"all\", or model names ("+
			strings.Join(faultsearch.ModelNames(), ", ")+")")
	fs.StringVar(&f.Cell, "search-cell", "4:0:0",
		"with -fault-search: the grid cell to search, as map:scenario:rep")
	fs.StringVar(&f.JSON, "search-json", "",
		"with -fault-search: also write the frontier table as JSON to this file")
	fs.BoolVar(&f.Quick, "quick", false,
		"with -fault-search: coarse tolerances (the committed-frontier / CI profile)")
	return f
}

// Active reports whether a fault search was requested.
func (f *SearchFlags) Active() bool { return f.Search != "" }

// ParseCell resolves -search-cell. Sscanf ignores trailing text, so the
// cell must also re-render to exactly what was given: "4:0:0junk" and
// "4:0:0:1" are refused instead of searching cell 4:0:0.
func (f *SearchFlags) ParseCell() (mapIdx, scIdx, rep int, err error) {
	n, err := fmt.Sscanf(f.Cell, "%d:%d:%d", &mapIdx, &scIdx, &rep)
	if err != nil || n != 3 || fmt.Sprintf("%d:%d:%d", mapIdx, scIdx, rep) != f.Cell {
		return 0, 0, 0, fmt.Errorf("-search-cell %q: want map:scenario:rep (e.g. 4:0:0)", f.Cell)
	}
	if mapIdx < 0 || scIdx < 0 || rep < 0 {
		return 0, 0, 0, fmt.Errorf("-search-cell %q: indices must be >= 0", f.Cell)
	}
	return mapIdx, scIdx, rep, nil
}

// Config returns the search tolerances the flags select.
func (f *SearchFlags) Config() faultsearch.Config {
	if f.Quick {
		return faultsearch.QuickConfig()
	}
	return faultsearch.Config{}
}
