package faultsearch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// FrontierVersion is bumped when the table schema or the search algorithm
// changes incompatibly, so a stale committed table fails loudly instead
// of diffing confusingly.
const FrontierVersion = 1

// CellRef is the JSON form of one grid cell.
type CellRef struct {
	System   string `json:"system"`
	Map      int    `json:"map"`
	Scenario int    `json:"scenario"`
	Rep      int    `json:"rep"`
}

// RefOf converts a campaign cell to its JSON reference.
func RefOf(c campaign.Cell) CellRef {
	return CellRef{System: c.Gen.String(), Map: c.MapIdx, Scenario: c.ScenarioIdx, Rep: c.Rep}
}

// Cell converts the reference back to a campaign cell.
func (r CellRef) Cell() (campaign.Cell, error) {
	for _, gen := range []core.Generation{core.V1, core.V2, core.V3} {
		if gen.String() == r.System {
			return campaign.Cell{Gen: gen, MapIdx: r.Map, ScenarioIdx: r.Scenario, Rep: r.Rep}, nil
		}
	}
	return campaign.Cell{}, fmt.Errorf("faultsearch: unknown system %q", r.System)
}

// Row is one model's entry in a frontier table: the minimal
// failure-inducing plan of that family on the table's cell (or the
// robust / baseline-failed terminal status).
type Row struct {
	Model  string `json:"model"`
	Status string `json:"status"`
	// The minimized coordinates, present for StatusMinimal rows. Plan is
	// the replayable -faults grammar string; Cause the induced failure.
	Start    float64 `json:"start,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	Severity float64 `json:"severity,omitempty"`
	Unit     string  `json:"unit,omitempty"`
	Plan     string  `json:"plan,omitempty"`
	Cause    string  `json:"cause,omitempty"`
	// Probes is the number of missions the search flew.
	Probes int `json:"probes"`
}

// Frontier is one cell's severity-frontier table: per-model minimal
// failure-inducing plans, committed benchgate-style under testdata/ and
// regenerated by tools/frontiergen. Everything that parameterizes the
// search is recorded in the table, so a regeneration with the same
// parameters is bit-identical (and a parameter change diffs visibly).
type Frontier struct {
	Version int     `json:"version"`
	Cell    CellRef `json:"cell"`
	// TimeTol/SevTolFrac are the search tolerances the rows were
	// minimized to.
	TimeTol    float64 `json:"time_tol"`
	SevTolFrac float64 `json:"sev_tol_frac"`
	// BaselineSeconds is the nominal mission duration (the search
	// horizon).
	BaselineSeconds float64 `json:"baseline_seconds"`
	Rows            []Row   `json:"rows"`
}

// RowOf summarizes a search outcome as a frontier row.
func RowOf(o *Outcome) Row {
	r := Row{Model: o.Model, Status: o.Status, Probes: len(o.Probes)}
	if o.Status == StatusMinimal {
		r.Start, r.Duration, r.Severity = o.Start, o.Duration, o.Severity
		r.Unit, r.Plan, r.Cause = o.Unit, o.PlanString(), o.Cause
	}
	return r
}

// GenerateConfig parameterizes one frontier generation.
type GenerateConfig struct {
	Cell   campaign.Cell
	Timing scenario.Timing
	// Models defaults to Models() (every atomic kind plus the correlated
	// composites).
	Models []Model
	Search Config
	// Workers bounds concurrent model searches (each search is itself
	// sequential); <= 0 means 1. The assembled table is bit-identical at
	// any worker count: searches share nothing but the immutable world.
	Workers int
	// OnOutcome, when non-nil, observes each finished search (in
	// completion order, for progress display and probe-log rendering; the
	// table itself is assembled in model order regardless).
	OnOutcome func(*Outcome)
	// NewProber overrides the campaign-backed CellProber, for tests and
	// alternative dispatch backends (e.g. a fleet-side prober). Called
	// once per model search, from that search's goroutine.
	NewProber func(Model) Prober
}

// Generate searches every model on one cell and assembles the frontier
// table. Individual searches run concurrently up to Workers; rows land in
// Models order regardless.
func Generate(ctx context.Context, cfg GenerateConfig) (*Frontier, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	models := cfg.Models
	if len(models) == 0 {
		models = Models()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(models) {
		workers = len(models)
	}
	search := cfg.Search.withDefaults()

	ft := &Frontier{
		Version:    FrontierVersion,
		Cell:       RefOf(cfg.Cell),
		TimeTol:    search.TimeTol,
		SevTolFrac: search.SevTolFrac,
		Rows:       make([]Row, len(models)),
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstErr  error
		baselines = make([]float64, len(models))
	)
	sem := make(chan struct{}, workers)
	for i, m := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed || ctx.Err() != nil {
				return
			}
			var prober Prober = &CellProber{Cell: cfg.Cell, Timing: cfg.Timing}
			if cfg.NewProber != nil {
				prober = cfg.NewProber(m)
			}
			o, err := Minimize(ctx, prober, m, search)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if err := o.VerifyLog(); err != nil && firstErr == nil {
				firstErr = err
				return
			}
			ft.Rows[i] = RowOf(o)
			baselines[i] = o.BaselineSeconds
			if cfg.OnOutcome != nil {
				cfg.OnOutcome(o)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The first baseline in model order, not completion order, so the
	// table is the same at any worker count.
	for _, b := range baselines {
		if b != 0 {
			ft.BaselineSeconds = b
			break
		}
	}
	return ft, nil
}

// Encode renders the table as canonical indented JSON with a trailing
// newline — the committed testdata format.
func (f *Frontier) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Digest is the sha256 over the canonical encoding — the one-line
// equality check for worker-count invariance and regeneration diffs.
func (f *Frontier) Digest() string {
	b, err := f.Encode()
	if err != nil {
		return "encode-error"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WriteFile persists the canonical encoding.
func (f *Frontier) WriteFile(path string) error {
	b, err := f.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFrontier loads a committed table, refusing schema-version skew.
func ReadFrontier(path string) (*Frontier, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f Frontier
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("faultsearch: %s: %w", path, err)
	}
	if f.Version != FrontierVersion {
		return nil, fmt.Errorf("faultsearch: %s: table version %d, this build writes %d — regenerate with tools/frontiergen",
			path, f.Version, FrontierVersion)
	}
	return &f, nil
}

// FindRow returns the named model's row.
func (f *Frontier) FindRow(model string) (Row, bool) {
	for _, r := range f.Rows {
		if r.Model == model {
			return r, true
		}
	}
	return Row{}, false
}
