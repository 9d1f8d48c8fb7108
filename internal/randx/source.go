package randx

import "math/rand"

// source is the generator behind every RNG: math/rand's additive lagged
// Fibonacci generator (x_n = x_{n−273} + x_{n−607} mod 2⁶⁴ over a
// 607-word register), output for output the stream rand.NewSource
// produces for the same seed, but with a faster Seed.
//
// math/rand seeds the register by running the Park–Miller LCG
// x ← 48271·x mod 2³¹−1 serially: 20 warm-up steps, then three steps
// per word, 1 841 dependent multiply-and-reduce steps in all. Word i
// only needs the chain values x₀·48271^(21+3i), ^(22+3i) and ^(23+3i),
// so Seed multiplies the seed by a precomputed power table instead —
// 1 821 independent products the CPU overlaps — and XORs in the same
// cooked constants. The register, and so every output, is identical;
// TestSourceMatchesMathRand pins it against rand.NewSource.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	// lcgMul is the Park–Miller multiplier of math/rand's seeding chain.
	lcgMul = 48271
	// zeroSeed replaces a seed ≡ 0 (mod 2³¹−1), as math/rand does.
	zeroSeed = 89482311
)

var (
	// seedPow[i][k] = 48271^(21+3i+k) mod 2³¹−1: the multipliers taking
	// a reduced seed to the three chain values register word i packs.
	seedPow [rngLen][3]uint64
	// cooked holds math/rand's cooked register constants, which every
	// seeded word is XORed with.
	cooked [rngLen]int64
)

func init() {
	m := uint64(1)
	for k := 0; k < 20; k++ {
		m = mulMod(m, lcgMul)
	}
	for i := range seedPow {
		for k := range seedPow[i] {
			m = mulMod(m, lcgMul)
			seedPow[i][k] = m
		}
	}

	// math/rand does not export its constants, so solve them back from
	// the first rngLen outputs of rand.NewSource(1). Output j (0-based)
	// adds register word (333−j) mod 607 to word 606−j; from j = 273 on
	// that second word already holds output j−273. Inverting those sums
	// gives the seeded register, and XORing out the seed-1 words leaves
	// the constants.
	ref := rand.NewSource(1).(rand.Source64)
	var out, reg [rngLen]int64
	for j := range out {
		out[j] = int64(ref.Uint64())
	}
	const feed0 = rngLen - rngTap - 1
	for j := rngTap; j < rngLen; j++ {
		reg[(feed0-j+rngLen)%rngLen] = out[j] - out[j-rngTap]
	}
	for j := 0; j < rngTap; j++ {
		reg[feed0-j] = out[j] - reg[rngLen-1-j]
	}
	var bare source // seeded while cooked is still zero
	bare.Seed(1)
	for i := range cooked {
		cooked[i] = reg[i] ^ bare.vec[i]
	}
}

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1) without a
// branch: the product (below 2⁶²) folds twice by 2³¹ ≡ 1. The second
// fold would leave 2³¹−1 for a multiple of 2³¹−1, but a product of two
// nonzero residues of a prime never is one.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// Seed initializes the register to the state rand.NewSource(seed)
// starts from. Like math/rand it reduces the seed mod 2³¹−1, so seeds
// congruent mod 2³¹−1 give the same stream.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		m := &seedPow[i]
		s.vec[i] = int64(mulMod(x, m[0])<<40^mulMod(x, m[1])<<20^mulMod(x, m[2])) ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit output.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next output with its top bit cleared.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
