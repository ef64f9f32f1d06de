package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// registry is one snapshot of the program's metrics registry, read the way
// a scraper reads it: through obs.WritePrometheus. Keys are series names
// including any label set, e.g. `coord_upload_rejects_total{reason="decode"}`.
type registry map[string]float64

// readRegistry snapshots the process-wide obs registry.
func readRegistry() (registry, error) {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseExposition(buf.Bytes())
}

// parseExposition parses Prometheus text exposition (version 0.0.4):
// comment lines are skipped, and every sample line is `series value`.
func parseExposition(b []byte) (registry, error) {
	r := registry{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("exposition: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition: sample %q: %w", line, err)
		}
		r[line[:i]] = v
	}
	return r, sc.Err()
}

// delta returns how far series moved from before to r. A series missing
// from either snapshot reads as 0.
func (r registry) delta(before registry, series string) float64 {
	return r[series] - before[series]
}
