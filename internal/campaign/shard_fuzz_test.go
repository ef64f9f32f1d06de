package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadShardResult feeds arbitrary file contents to the campaign
// result reader behind `-merge`: whatever the bytes, it must not panic,
// and a file it accepts must cover its whole campaign — index 0 of 1 over
// runs [0, total) — with non-null rows that digest. The seed corpus under
// testdata/fuzz holds a real `-serve -out` file, the same file with a
// null row and with a partial range, a part file of the former static
// `-shard 1/2` flow, and a served field campaign's file, which names its
// profile and carries platform rows.
func FuzzReadShardResult(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"index":0,"count":1,"start":0,"end":1,"total":1,"aggregates":{"3":{"runs":1}}}`))
	f.Add([]byte(`{"count":1,"end":2,"total":2,"aggregates":{"1":{"runs":9223372036854775807},"2":{"runs":-9223372036854775805}}}`))

	f.Fuzz(func(t *testing.T, contents []byte) {
		path := filepath.Join(t.TempDir(), "result.json")
		if err := os.WriteFile(path, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		sr, err := ReadShardResult(path)
		if err != nil {
			return // refused cleanly
		}
		if sr.Index != 0 || sr.Count != 1 || sr.Start != 0 || sr.End != sr.Total || sr.Total < 1 {
			t.Fatalf("accepted a file that is not the whole campaign: part %d of %d, runs [%d,%d) of %d",
				sr.Index+1, sr.Count, sr.Start, sr.End, sr.Total)
		}
		for gen, agg := range sr.Aggregates {
			if agg == nil {
				t.Fatalf("accepted a null row for generation %d", gen)
			}
			if agg.Digest() == "" {
				t.Fatalf("row %d has no digest", gen)
			}
		}
		if AggregatesDigest(sr.Aggregates) == "" {
			t.Fatal("accepted file has no aggregate digest")
		}
	})
}
