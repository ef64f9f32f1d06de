package scenario

import (
	"encoding/json"
	"math"
	"testing"
)

// Fuzz coverage for the wire codec. The codec underpins every durability
// guarantee in the repo — checkpoint resume, shard merge, the golden
// digest — so its decoders must be total: any byte string either decodes
// cleanly or errors, never panics, and anything that decodes must survive
// a re-encode round trip bit-exactly (digest-stable). Seed corpora live
// under testdata/fuzz and run as regular cases in tier-1 `go test`.

// FuzzResultDecode hammers Result.UnmarshalJSON with arbitrary bytes.
func FuzzResultDecode(f *testing.F) {
	valid, err := json.Marshal(Result{
		Outcome: Success, Duration: 12.5, Landed: true,
		LandingError: 0.21, DetectionError: math.NaN(),
		MarkerVisibleFrames: 10, MarkerDetectedFrames: 9,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"landing_error":"NaN","detection_error":"+Inf"}`))
	f.Add([]byte(`{"landing_error":"nan"}`)) // wrong case: must error, not panic
	f.Add([]byte(`{"outcome":999,"stats":{"Detections":-1}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return // rejected cleanly
		}
		// Accepted input must round-trip digest-stable.
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("decoded result failed to re-encode: %v", err)
		}
		var r2 Result
		if err := json.Unmarshal(b, &r2); err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		if r.Digest() != r2.Digest() {
			t.Fatalf("round trip changed the digest:\n in: %s\nout: %s", b, data)
		}
	})
}
