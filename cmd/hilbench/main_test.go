package main

import (
	"testing"

	"repro/internal/catalog"
)

// TestPowerMode: -mode selects a HIL campaign by its exact name, and any
// other value is an error instead of a silent MAXN run.
func TestPowerMode(t *testing.T) {
	for mode, want := range map[string]*catalog.Campaign{
		"maxn": catalog.HILMAXN,
		"5w":   catalog.HIL5W,
		"5W":   nil,
		"MAXN": nil,
		"10w":  nil,
		"":     nil,
	} {
		got, err := powerMode(mode)
		if got != want || (err == nil) != (want != nil) {
			t.Errorf("powerMode(%q) = %v, %v; want %v", mode, got, err, want)
		}
	}
}
