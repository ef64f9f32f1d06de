package vision

import (
	"math"
	"math/rand"
	"testing"
)

// integralReference builds the summed-area table the way Compute did
// before it interleaved rows: one row at a time, one prefix chain.
func integralReference(im *Image) []float64 {
	stride := im.W + 1
	sum := make([]float64, stride*(im.H+1))
	for y := 0; y < im.H; y++ {
		var row float64
		for x := 0; x < im.W; x++ {
			row += im.Pix[y*im.W+x]
			sum[(y+1)*stride+(x+1)] = sum[y*stride+(x+1)] + row
		}
	}
	return sum
}

// TestIntegralMatchesReference holds the four-row Compute to the
// one-row reference bit for bit, on the camera's frame size and on sizes
// whose height leaves one, two or three rows after the last group of
// four, with one table reused across every size so stale entries from a
// larger frame would show.
func TestIntegralMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var ig Integral
	for _, sz := range [][2]int{
		{128, 128}, {128, 127}, {128, 126}, {128, 125}, {17, 13}, {37, 23},
		{1, 1}, {1, 9}, {33, 1}, {3, 4}, {5, 0}, {0, 5}, {0, 0}, {128, 128},
	} {
		im := NewImage(sz[0], sz[1])
		for i := range im.Pix {
			switch rng.Intn(8) {
			case 0:
				im.Pix[i] = 0
			case 1:
				im.Pix[i] = 1
			default:
				im.Pix[i] = rng.Float64()
			}
		}
		ig.Compute(im)
		want := integralReference(im)
		if ig.W != im.W || ig.H != im.H || len(ig.sum) != len(want) {
			t.Fatalf("%dx%d: table %dx%d with %d entries, want %d", im.W, im.H, ig.W, ig.H, len(ig.sum), len(want))
		}
		for i := range want {
			if math.Float64bits(ig.sum[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d: entry %d = %v, reference %v", im.W, im.H, i, ig.sum[i], want[i])
			}
		}
	}
}
