package data

import (
	"fmt"
	"math"

	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// RealSpec describes one of the paper's four UCI datasets and the
// simulator that stands in for it. The paper uses these datasets only to
// show error-vs-(n, ε) trends on data violating sub-Gaussian
// assumptions, so the simulator matches (n, d), the task, and a
// heavy-tailed column profile rather than the literal bytes (see
// DESIGN.md, "Substitutions").
type RealSpec struct {
	Name       string
	N, D       int
	Regression bool // true → squared loss, false → logistic
	// TailSigma controls how heavy the per-column log-normal tails are.
	TailSigma float64
	// HeavyFrac is the fraction of columns given Student-t(3) tails on
	// top of the log-normal scale heterogeneity.
	HeavyFrac float64
}

// RealSpecs lists the four datasets of §6.1 with the paper's sizes.
// Figures 3–4 run on these profiles; EXPERIMENTS.md documents those
// registry entries and the knobs each profile exposes.
var RealSpecs = []RealSpec{
	{Name: "blog", N: 60021, D: 281, Regression: true, TailSigma: 1.0, HeavyFrac: 0.3},
	{Name: "twitter", N: 583249, D: 77, Regression: true, TailSigma: 1.2, HeavyFrac: 0.4},
	{Name: "winnipeg", N: 325834, D: 175, Regression: false, TailSigma: 0.8, HeavyFrac: 0.25},
	{Name: "yearpred", N: 515345, D: 90, Regression: false, TailSigma: 0.9, HeavyFrac: 0.35},
}

// LookupReal returns the spec with the given name.
func LookupReal(name string) (RealSpec, error) {
	for _, s := range RealSpecs {
		if s.Name == name {
			return s, nil
		}
	}
	return RealSpec{}, fmt.Errorf("data: unknown real dataset %q (have blog, twitter, winnipeg, yearpred)", name)
}

// SimulatedReal deterministically generates the stand-in dataset for
// spec, scaled to ⌈scale·N⌉ rows (scale ≤ 1; use 1 for paper-size runs).
// Columns get heterogeneous heavy tails: every column j is a log-normal
// scale c_j times either |Student-t(3)| (heavy columns) or log-normal
// noise, plus a dense planted signal with heavy-tailed label noise.
func SimulatedReal(r *randx.RNG, spec RealSpec, scale float64) *Dataset {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("data: SimulatedReal scale %v outside (0,1]", scale))
	}
	n := int(math.Ceil(scale * float64(spec.N)))
	d := spec.D

	colScale := make([]float64, d)
	heavy := make([]bool, d)
	for j := 0; j < d; j++ {
		colScale[j] = math.Exp(spec.TailSigma * r.Normal())
		heavy[j] = r.Float64() < spec.HeavyFrac
	}
	w := L1UnitWStar(r, d)

	lognorm := randx.LogNormal{Mu: 0, Sigma: spec.TailSigma}
	studt := randx.StudentT{Nu: 3}
	noise := randx.Mixture{
		Weights:    []float64{0.9, 0.1},
		Components: []randx.Dist{randx.Normal{Mu: 0, Sigma: 0.1}, randx.StudentT{Nu: 2.5}},
	}

	x := vecmath.NewMat(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := 0; j < d; j++ {
			if heavy[j] {
				row[j] = colScale[j] * math.Abs(studt.Sample(r))
			} else {
				row[j] = colScale[j] * lognorm.Sample(r)
			}
		}
		z := vecmath.Dot(w, row) + noise.Sample(r)
		if spec.Regression {
			y[i] = z
		} else if z >= vecmath.Dot(w, colScaleMeans(colScale, heavy)) {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return &Dataset{
		Label: fmt.Sprintf("sim-%s(n=%d,d=%d)", spec.Name, n, d),
		X:     x, Y: y, WStar: w,
	}
}

// colScaleMeans returns the approximate per-column means so the
// classification threshold sits near the centre of the score
// distribution instead of labelling everything +1 (all features are
// positive by construction).
func colScaleMeans(colScale []float64, heavy []bool) []float64 {
	m := make([]float64, len(colScale))
	for j, c := range colScale {
		if heavy[j] {
			// E|t₃| = 2√3/π.
			m[j] = c * 2 * math.Sqrt(3) / math.Pi
		} else {
			m[j] = c * math.Exp(0.5) // E lognormal(0,1) ≈ e^{σ²/2}; σ varies, keep coarse
		}
	}
	return m
}
