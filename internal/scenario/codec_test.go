package scenario

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// sampleResult builds a result exercising every field, including the
// NaN-able metrics and nested detection positions.
func sampleResult(rng *rand.Rand) Result {
	r := Result{
		Outcome:              Outcome(rng.Intn(3)),
		FinalState:           core.State(rng.Intn(5)),
		Duration:             rng.Float64() * 300,
		Landed:               rng.Intn(2) == 0,
		LandingError:         rng.Float64() * 5,
		DetectionError:       rng.Float64() * 3,
		MarkerVisibleFrames:  rng.Intn(100),
		MarkerDetectedFrames: rng.Intn(90),
		OnWater:              rng.Intn(5) == 0,
		MaxGPSDrift:          rng.Float64() * 8,
		Stats: core.Stats{
			Detections:    rng.Intn(40),
			Validations:   rng.Intn(10),
			ValidationsOK: rng.Intn(10),
			Aborts:        rng.Intn(3),
			Failsafes:     rng.Intn(2),
			PlanFailures:  rng.Intn(4),
			PlanFallbacks: rng.Intn(4),
			Replans:       rng.Intn(12),
		},
	}
	for i := 0; i < rng.Intn(5); i++ {
		r.Stats.DetectionPositions = append(r.Stats.DetectionPositions,
			geom.V3(rng.NormFloat64()*30, rng.NormFloat64()*30, 0))
	}
	if rng.Intn(3) == 0 {
		r.LandingError = math.NaN()
	}
	if rng.Intn(4) == 0 {
		r.DetectionError = math.NaN()
	}
	return r
}

// eqResult is bit-exact equality with NaN==NaN (reflect.DeepEqual treats
// NaN as unequal to itself).
func eqResult(a, b Result) bool {
	nanEq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	if !nanEq(a.LandingError, b.LandingError) || !nanEq(a.DetectionError, b.DetectionError) {
		return false
	}
	a.LandingError, b.LandingError = 0, 0
	a.DetectionError, b.DetectionError = 0, 0
	return reflect.DeepEqual(a, b)
}

func TestResultJSONRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		r := sampleResult(rng)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if !eqResult(r, got) {
			t.Fatalf("round trip diverged:\n in %+v\nout %+v", r, got)
		}
		if r.Digest() != got.Digest() {
			t.Fatal("round trip changed the digest")
		}
	}
}

func TestResultDigestDetectsChange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := sampleResult(rng)
	d := r.Digest()
	r2 := r
	r2.Duration = math.Nextafter(r2.Duration, math.Inf(1))
	if r2.Digest() == d {
		t.Error("one-ulp duration change not reflected in digest")
	}
	r3 := r
	r3.MarkerDetectedFrames++
	if r3.Digest() == d {
		t.Error("counter change not reflected in digest")
	}
}

func TestNanFloatEncoding(t *testing.T) {
	cases := map[string]float64{
		`"NaN"`:  math.NaN(),
		`"+Inf"`: math.Inf(1),
		`"-Inf"`: math.Inf(-1),
		`1.5`:    1.5,
	}
	for enc, v := range cases {
		b, err := json.Marshal(nanFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != enc {
			t.Errorf("nanFloat(%v) encodes as %s, want %s", v, b, enc)
		}
		var got nanFloat
		if err := json.Unmarshal([]byte(enc), &got); err != nil {
			t.Fatal(err)
		}
		if g := float64(got); g != v && !(math.IsNaN(g) && math.IsNaN(v)) {
			t.Errorf("%s decodes to %v, want %v", enc, g, v)
		}
	}
	var bad nanFloat
	if err := json.Unmarshal([]byte(`"nope"`), &bad); err == nil {
		t.Error("invalid float string did not error")
	}
}
