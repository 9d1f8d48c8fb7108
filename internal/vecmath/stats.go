package vecmath

import "math"

// OnlineMoments accumulates count, mean and variance in one pass with
// Welford's numerically stable recurrence, and merges across parallel
// accumulators with Chan et al.'s pairwise update. The experiment
// harness uses it to aggregate trial results; it is exposed because any
// consumer of the library that streams heavy-tailed measurements needs
// a cancellation-free variance.
type OnlineMoments struct {
	N    int
	Mean float64
	m2   float64
}

// Add folds one observation in.
func (o *OnlineMoments) Add(x float64) {
	o.N++
	d := x - o.Mean
	o.Mean += d / float64(o.N)
	o.m2 += d * (x - o.Mean)
}

// AddAll folds a batch in.
func (o *OnlineMoments) AddAll(xs []float64) {
	for _, x := range xs {
		o.Add(x)
	}
}

// Merge combines another accumulator into this one.
func (o *OnlineMoments) Merge(b OnlineMoments) {
	if b.N == 0 {
		return
	}
	if o.N == 0 {
		*o = b
		return
	}
	n := float64(o.N + b.N)
	d := b.Mean - o.Mean
	o.m2 += b.m2 + d*d*float64(o.N)*float64(b.N)/n
	o.Mean += d * float64(b.N) / n
	o.N += b.N
}

// Var returns the population variance (0 for fewer than 2 samples).
func (o *OnlineMoments) Var() float64 {
	if o.N < 2 {
		return 0
	}
	return o.m2 / float64(o.N)
}

// Std returns the population standard deviation.
func (o *OnlineMoments) Std() float64 { return math.Sqrt(o.Var()) }
