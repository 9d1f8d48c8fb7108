package randx

import (
	"math"
	"math/rand"
	"testing"
)

// pinnedSeeds are the edge cases of math/rand's seed reduction: zero and
// the multiples of 2³¹−1 (which map to the replacement seed), the
// replacement seed itself, signs, and the int64 extremes.
var pinnedSeeds = []int64{
	0, 1, -1, int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
	zeroSeed, -zeroSeed, math.MinInt64, math.MaxInt64,
}

// matchStream draws 4·607 outputs from r, alternating Uint64 and Int63
// so that each kind alone wraps the register twice, and fails on the
// first one that differs from rand.NewSource(seed).
func matchStream(t *testing.T, entry string, seed int64, r *RNG) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	for k := 0; k < 4*rngLen; k++ {
		if k%2 == 0 {
			if a, b := r.src.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("%s seed %d output %d: Uint64 %#x, math/rand %#x", entry, seed, k, a, b)
			}
		} else if a, b := r.Int63(), ref.Int63(); a != b {
			t.Fatalf("%s seed %d output %d: Int63 %#x, math/rand %#x", entry, seed, k, a, b)
		}
	}
}

// TestSourceMatchesMathRand pins the package's generator to math/rand's
// output for output, through every way an RNG gets seeded: New, Reseed
// of a used RNG, and SplitInto (whose child seed is the parent's next
// Int63, so it covers random 63-bit seeds; the parent must advance as
// math/rand's would).
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), pinnedSeeds...)
	gen := rand.New(rand.NewSource(20240607))
	for len(seeds) < len(pinnedSeeds)+1000 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	recycled := New(7)
	var child *RNG
	for _, seed := range seeds {
		matchStream(t, "New", seed, New(seed))

		recycled.Reseed(seed)
		matchStream(t, "Reseed", seed, recycled)

		parent, refParent := New(seed), rand.New(rand.NewSource(seed))
		child = parent.SplitInto(child)
		childSeed := refParent.Int63()
		matchStream(t, "SplitInto", childSeed, child)
		if a, b := parent.Int63(), refParent.Int63(); a != b {
			t.Fatalf("SplitInto seed %d: parent continues with %#x, math/rand with %#x", seed, a, b)
		}
	}
}

// BenchmarkReseed measures seeding the package's generator;
// BenchmarkReseedMathRand seeds math/rand's for comparison.
func BenchmarkReseed(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Reseed(int64(i))
	}
}

func BenchmarkReseedMathRand(b *testing.B) {
	s := rand.NewSource(1)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}
