package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected quantiles are Python's statistics.quantiles(xs, n=...),
// which is how the benchmark's spreads are judged.
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	cases := []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 4, []float64{1.5, 3.0, 4.5}},
		{[]float64{3.5, 1, 10, 2, 7, 4, 9, 8, 6, 5}, 4, []float64{3.125, 5.5, 8.25}},
		{[]float64{2, 4}, 4, []float64{1.5, 3.0, 4.5}},
		{[]float64{5, 1, 3}, 10, []float64{-0.2, 0.6, 1.4, 2.2, 3.0, 3.8, 4.6, 5.4, 6.2}},
	}
	for _, c := range cases {
		for i, want := range c.want {
			q := float64(i+1) / float64(c.n)
			if got := quantile(c.xs, q); !near(got, want) {
				t.Errorf("quantile(%v, %d/%d) = %v, want %v", c.xs, i+1, c.n, got, want)
			}
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want it", got)
	}
}

func TestMedianDoesNotReorderItsInput(t *testing.T) {
	xs := []float64{9, 1, 5, 3}
	if got := median(xs); got != 4 {
		t.Errorf("median(%v) = %v, want 4 (mean of the middle pair)", xs, got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if xs[0] != 9 || xs[3] != 3 {
		t.Errorf("median sorted its caller's slice: %v", xs)
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {39, 0.5}, {40, 0.75},
		{100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 20 && float64(c.n)*(1-c.want) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond it", c.n, c.want)
		}
	}
}

func TestRatioWithAZeroBase(t *testing.T) {
	if got := ratio(26, 1207); !near(got, 26.0/1207) {
		t.Errorf("ratio(26, 1207) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over a zero base = %v, want 0", got)
	}
}
