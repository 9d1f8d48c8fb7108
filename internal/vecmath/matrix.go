package vecmath

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix. The zero value is an empty matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat allocates a zeroed r×c matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic("vecmath: NewMat negative dimension")
	}
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// MatFromRows builds a matrix whose i-th row is rows[i] (copied).
// All rows must have equal length.
func MatFromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return &Mat{}
	}
	c := len(rows[0])
	m := NewMat(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("vecmath: MatFromRows ragged row %d: %d != %d", i, len(r), c))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns the (i, j) entry.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a shared (not copied) slice.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MatVec computes dst = M·v and returns dst (allocated when nil).
func (m *Mat) MatVec(dst, v []float64) []float64 {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("vecmath: MatVec dim mismatch %d != %d", len(v), m.Cols))
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), v)
	}
	return dst
}

// MatTVec computes dst = Mᵀ·v and returns dst (allocated when nil).
func (m *Mat) MatTVec(dst, v []float64) []float64 {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("vecmath: MatTVec dim mismatch %d != %d", len(v), m.Rows))
	}
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	Zero(dst)
	for i := 0; i < m.Rows; i++ {
		Axpy(v[i], m.Row(i), dst)
	}
	return dst
}

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("vecmath: Mul dim mismatch %d != %d", m.Cols, b.Rows))
	}
	out := NewMat(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		oi := out.Row(i)
		for k, a := range ri {
			if a == 0 {
				continue
			}
			Axpy(a, b.Row(k), oi)
		}
	}
	return out
}

// Gram returns the d×d second-moment matrix (1/n)·XᵀX of a data matrix
// whose rows are samples. This estimates E[xxᵀ], whose extremal
// eigenvalues γ=λmax and µ=λmin parameterize Theorems 5, 7, and 8.
// It runs the sharded kernel on all cores; GramP selects the worker
// count explicitly.
func (m *Mat) Gram() *Mat {
	return m.GramP(0)
}

// SymEigMax estimates the largest eigenvalue of a symmetric matrix by
// power iteration, returning the eigenvalue and eigenvector. It runs at
// most maxIter iterations or until the Rayleigh quotient changes by less
// than tol.
func SymEigMax(a *Mat, maxIter int, tol float64) (float64, []float64) {
	if a.Rows != a.Cols {
		panic("vecmath: SymEigMax non-square matrix")
	}
	d := a.Rows
	if d == 0 {
		return 0, nil
	}
	// Deterministic start vector with energy on every coordinate.
	v := make([]float64, d)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(d))
		if i%2 == 1 {
			v[i] = -v[i]
		}
	}
	w := make([]float64, d)
	prev := math.Inf(-1)
	lam := 0.0
	for it := 0; it < maxIter; it++ {
		a.MatVec(w, v)
		n := Norm2(w)
		if n == 0 {
			return 0, v
		}
		for i := range v {
			v[i] = w[i] / n
		}
		lam = Dot(v, a.MatVec(w, v))
		if math.Abs(lam-prev) < tol*(1+math.Abs(lam)) {
			break
		}
		prev = lam
	}
	return lam, v
}

// SymEigMin estimates the smallest eigenvalue of a symmetric positive
// semi-definite matrix via power iteration on σI − A with σ = λmax.
func SymEigMin(a *Mat, maxIter int, tol float64) float64 {
	lmax, _ := SymEigMax(a, maxIter, tol)
	if lmax <= 0 {
		return lmax
	}
	d := a.Rows
	shift := a.Clone()
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			v := -shift.At(i, j)
			if i == j {
				v += lmax
			}
			shift.Set(i, j, v)
		}
	}
	l2, _ := SymEigMax(shift, maxIter, tol)
	return lmax - l2
}

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ of a
// symmetric positive-definite matrix. It returns an error when A is not
// (numerically) positive definite.
func Cholesky(a *Mat) (*Mat, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("vecmath: Cholesky non-square %dx%d", a.Rows, a.Cols)
	}
	d := a.Rows
	l := NewMat(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("vecmath: Cholesky not positive definite at pivot %d (%.3g)", i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveSPD solves A·x = b for symmetric positive-definite A using a
// Cholesky factorization.
func SolveSPD(a *Mat, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	d := a.Rows
	if len(b) != d {
		return nil, fmt.Errorf("vecmath: SolveSPD dim mismatch %d != %d", len(b), d)
	}
	// Forward solve L·y = b.
	y := make([]float64, d)
	for i := 0; i < d; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back solve Lᵀ·x = y.
	x := make([]float64, d)
	for i := d - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < d; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min‖Xw − y‖₂² via the (ridge-regularized) normal
// equations (XᵀX + λI)w = Xᵀy. A small λ keeps the system well posed
// when XᵀX is singular; pass 0 for a plain least-squares solve.
func LeastSquares(x *Mat, y []float64, ridge float64) ([]float64, error) {
	if len(y) != x.Rows {
		return nil, fmt.Errorf("vecmath: LeastSquares dim mismatch %d != %d", len(y), x.Rows)
	}
	d := x.Cols
	g := NewMat(d, d)
	rhs := make([]float64, d)
	for i := 0; i < x.Rows; i++ {
		r := x.Row(i)
		Axpy(y[i], r, rhs)
		for a := 0; a < d; a++ {
			if r[a] == 0 {
				continue
			}
			ga := g.Row(a)
			for b := 0; b < d; b++ {
				ga[b] += r[a] * r[b]
			}
		}
	}
	for i := 0; i < d; i++ {
		g.Set(i, i, g.At(i, i)+ridge)
	}
	return SolveSPD(g, rhs)
}
