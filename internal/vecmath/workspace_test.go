package vecmath

import (
	"math"
	"strings"
	"testing"

	"htdp/internal/parallel"
	"htdp/internal/randx"
)

// TestMatWorkspaceBitIdentical: the workspace kernels must reproduce
// the allocating kernels bit for bit across shapes, worker counts, and
// workspace reuse (growing and shrinking shapes through one workspace).
func TestMatWorkspaceBitIdentical(t *testing.T) {
	var ws MatWorkspace
	shapes := []struct{ r, c int }{{1, 1}, {5, 3}, {200, 40}, {63, 65}, {130, 7}}
	for si, sh := range shapes {
		m := randMat(int64(si+1), sh.r, sh.c)
		rng := randx.New(int64(100 + si))
		v := rng.NormalVec(make([]float64, sh.c), 1)
		u := rng.NormalVec(make([]float64, sh.r), 1)
		for _, w := range []int{1, 4} {
			got := ws.MatVec(make([]float64, sh.r), m, v, w)
			want := m.MatVecP(make([]float64, sh.r), v, w)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("MatVec %dx%d w=%d: row %d = %v want %v", sh.r, sh.c, w, i, got[i], want[i])
				}
			}
			gotT := ws.MatTVec(make([]float64, sh.c), m, u, w)
			wantT := m.MatTVecP(make([]float64, sh.c), u, w)
			for i := range wantT {
				if gotT[i] != wantT[i] {
					t.Fatalf("MatTVec %dx%d w=%d: col %d = %v want %v", sh.r, sh.c, w, i, gotT[i], wantT[i])
				}
			}
		}
	}
}

// TestMatWorkspaceZeroAllocs: warm workspace + sequential engine +
// caller-owned destinations ⇒ zero allocations per kernel call.
func TestMatWorkspaceZeroAllocs(t *testing.T) {
	m := randMat(9, 300, 200)
	rng := randx.New(10)
	v := rng.NormalVec(make([]float64, 200), 1)
	u := rng.NormalVec(make([]float64, 300), 1)
	dstR := make([]float64, 300)
	dstC := make([]float64, 200)
	var ws MatWorkspace
	ws.MatVec(dstR, m, v, 1)
	ws.MatTVec(dstC, m, u, 1)
	if allocs := testing.AllocsPerRun(10, func() { ws.MatVec(dstR, m, v, 1) }); allocs != 0 {
		t.Errorf("MatVec allocates %v per call", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { ws.MatTVec(dstC, m, u, 1) }); allocs != 0 {
		t.Errorf("MatTVec allocates %v per call", allocs)
	}
}

// heavyValue draws one matrix or vector entry: mostly moderate values
// whose magnitudes vary over a few decades, so the rounding of a sum
// depends on its addition order, plus magnitudes out to 1e±300, exact
// zeros of both signs and subnormals.
func heavyValue(r *randx.RNG) float64 {
	sign := 1.0
	if r.Float64() < 0.5 {
		sign = -1
	}
	switch u := r.Float64(); {
	case u < 0.01:
		return math.Copysign(0, sign)
	case u < 0.02:
		return sign * math.SmallestNonzeroFloat64 * float64(1+r.Intn(1<<40))
	case u < 0.04:
		return sign * r.Uniform(1, 10) * math.Pow(10, float64(r.Intn(601)-300))
	default:
		return r.Normal() * math.Pow(10, math.Max(-6, math.Min(6, r.StudentT(2))))
	}
}

// heavyProblem returns an r×c matrix and the vectors for M·v and Mᵀ·u,
// all drawn by heavyValue. A few rows and columns are also poisoned:
// ±Inf and NaN land only where a poisoned row meets a poisoned column,
// so most outputs stay finite and order-sensitive.
func heavyProblem(seed int64, r, c int) (m *Mat, v, u []float64) {
	rng := randx.New(seed)
	m = NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = heavyValue(rng)
	}
	v, u = make([]float64, c), make([]float64, r)
	for j := range v {
		v[j] = heavyValue(rng)
	}
	for i := range u {
		u[i] = heavyValue(rng)
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if (i%8 == 3 || i == r-1) && (j%8 == 5 || j == c-1) && rng.Float64() < 0.5 {
				m.Set(i, j, specials[rng.Intn(len(specials))])
			}
		}
	}
	return m, v, u
}

// sameBits reports whether a and b are the same float64 bit pattern,
// treating every NaN as equal: NaN payloads are not part of the
// kernels' contract, and the compiler may commute an operation's
// operands.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// diffs counts the entries where a and b differ under sameBits and
// returns the first such index (-1 when none).
func diffs(a, b []float64) (n, first int) {
	first = -1
	for i := range a {
		if !sameBits(a[i], b[i]) {
			if n == 0 {
				first = i
			}
			n++
		}
	}
	return n, first
}

// TestMatWorkspaceRegisterBlockedBitIdentical pins the contract of the
// four-row blocked kernels: MatWorkspace.MatVec and MatTVec reproduce
// the plain row loops bit for bit (NaN payloads aside) on data that
// can tell addition orders apart. Rows 0–9, 63–65, 129, 1000 and 2051
// put every tail length 0–3 into single-shard and many-shard ranges;
// one workspace runs every shape, so it both grows and shrinks.
//
// MatVecP and (*Mat).MatVec are each row's Dot, so MatVec must match
// both at every worker count. MatTVecP merges per-shard partials, so
// MatTVec must match it everywhere and the single-pass (*Mat).MatTVec
// wherever the rows form one shard.
//
// The negative controls sum in a changed order: each row's dot product
// as its even-j and odd-j halves, and each column as its even-row and
// odd-row halves. They must disagree with the references somewhere on
// the same data, or the data could not detect a reordered kernel.
func TestMatWorkspaceRegisterBlockedBitIdentical(t *testing.T) {
	var ws MatWorkspace
	rowsList := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 129, 1000, 2051}
	colsList := []int{1, 2, 3, 5, 40, 257}
	controlV, controlT := 0, 0
	seed := int64(0)
	for _, r := range rowsList {
		for _, c := range colsList {
			seed++
			m, v, u := heavyProblem(seed, r, c)
			seqV := m.MatVec(nil, v)
			seqT := m.MatTVec(nil, u)
			for _, w := range []int{1, 2, 4} {
				check := func(what string, got, want []float64) {
					t.Helper()
					if n, i := diffs(got, want); n > 0 {
						t.Errorf("%dx%d w=%d: %s differ in %d entries, first %d: %v want %v",
							r, c, w, what, n, i, got[i], want[i])
					}
				}
				got := ws.MatVec(make([]float64, r), m, v, w)
				check("MatVec and MatVecP", got, m.MatVecP(nil, v, w))
				check("MatVec and (*Mat).MatVec", got, seqV)
				gotT := ws.MatTVec(make([]float64, c), m, u, w)
				check("MatTVec and MatTVecP", gotT, m.MatTVecP(nil, u, w))
				if parallel.NumShards(r) <= 1 {
					check("MatTVec and (*Mat).MatTVec", gotT, seqT)
				}
			}
			n, _ := diffs(interleavedMatVec(m, v), seqV)
			controlV += n
			n, _ = diffs(interleavedMatTVec(m, u), seqT)
			controlT += n
		}
	}
	if controlV == 0 || controlT == 0 {
		t.Fatalf("negative controls found %d MatVec and %d MatTVec differences: the data cannot detect a changed addition order", controlV, controlT)
	}
	t.Logf("negative controls: %d MatVec rows and %d MatTVec cols differ", controlV, controlT)
}

// interleavedMatVec sums each row's dot product as two interleaved
// halves (even j, odd j) and then adds the halves.
func interleavedMatVec(m *Mat, v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var even, odd float64
		for j, x := range m.Row(i) {
			if j%2 == 0 {
				even += x * v[j]
			} else {
				odd += x * v[j]
			}
		}
		out[i] = even + odd
	}
	return out
}

// interleavedMatTVec sums each column as two interleaved halves (even
// rows, odd rows) and then adds the halves.
func interleavedMatTVec(m *Mat, u []float64) []float64 {
	even, odd := make([]float64, m.Cols), make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i%2 == 0 {
			Axpy(u[i], m.Row(i), even)
		} else {
			Axpy(u[i], m.Row(i), odd)
		}
	}
	for j := range even {
		even[j] += odd[j]
	}
	return even
}

// TestMatWorkspaceDstLengthPanics: a dst of the wrong length is
// rejected on the calling goroutine before any shard runs, so the
// caller's recover catches it even at workers > 1 (a panic inside a
// worker goroutine would end the process).
func TestMatWorkspaceDstLengthPanics(t *testing.T) {
	m := randMat(3, 300, 8)
	var ws MatWorkspace
	cases := []struct {
		name string
		call func()
	}{
		{"MatVec short dst", func() { ws.MatVec(make([]float64, 299), m, make([]float64, 8), 4) }},
		{"MatTVec long dst", func() { ws.MatTVec(make([]float64, 9), m, make([]float64, 300), 4) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "dst length") {
					t.Errorf("%s: recovered %q, want a dst length panic", c.name, msg)
				}
			}()
			c.call()
		}()
	}
}
