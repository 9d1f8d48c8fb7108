// Package benchio records the repository's performance trajectory:
// it runs a registered suite of benchmarks (the figure-regeneration
// benchmarks plus the hot-path kernels) outside `go test`, via
// testing.Benchmark, and serializes the measurements as a BENCH_*.json
// artifact. CI regenerates the artifact on every build, uploads it, and
// diffs it against the committed baseline, failing on slowdowns beyond
// a tolerance — so perf claims in this repository are measured, never
// asserted, and every PR leaves a comparable record behind.
//
// Cross-machine comparability: raw ns/op on two different machines is
// meaningless, so every report carries a calibration measurement (a
// fixed, allocation-free arithmetic spin). Compare normalizes both
// sides by their calibration before applying the tolerance, which
// absorbs a uniform CPU-speed difference between the machine that
// committed the baseline and the CI runner. It cannot absorb
// microarchitectural differences — the tolerance is deliberately loose
// (default 25%) and the gate takes the best of several rounds to damp
// scheduler noise.
package benchio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"` // b.N of the selected round
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extra carries custom b.ReportMetric measurements (the sweep
	// benchmark reports passes/op and trials/op — data reads and trials
	// per sweep). Recorded in the trajectory for inspection; Compare
	// does not gate on it.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is a full suite run: environment, calibration, measurements.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CalibNs    float64  `json:"calib_ns"` // ns/op of the fixed calibration spin
	Results    []Result `json:"results"`
}

// Benchmark is a registered suite entry.
type Benchmark struct {
	Name string
	F    func(b *testing.B)
}

var registry []Benchmark

// Register adds a benchmark to the suite. Names must be unique; the
// figure benchmarks and kernels self-register from suite.go.
func Register(name string, f func(b *testing.B)) {
	for _, b := range registry {
		if b.Name == name {
			panic("benchio: duplicate benchmark " + name)
		}
	}
	registry = append(registry, Benchmark{Name: name, F: f})
}

// Names returns the registered benchmark names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name
	}
	sort.Strings(out)
	return out
}

// calibSink defeats dead-code elimination of the calibration spin.
var calibSink float64

// nsPerOp computes fractional ns/op (testing's NsPerOp truncates to an
// integer, far too coarse for the ~1 ns calibration spin).
func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// calibrate measures the fixed arithmetic spin used to normalize
// reports across machines. The spin is 1024 dependent multiply-adds per
// op, so one op lands near a microsecond and the fractional ns/op is
// well resolved.
func calibrate() float64 {
	r := testing.Benchmark(func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			x := 1.0000001
			for k := 0; k < 1024; k++ {
				s += x*x - x/3
				x += 1e-9
			}
		}
		calibSink = s
	})
	return nsPerOp(r)
}

// Run executes every registered benchmark whose name matches filter
// (empty = all), `rounds` times each, keeping the fastest round — the
// standard defense against scheduler noise — and returns the report.
// progress, when non-nil, receives one line per benchmark.
func Run(filter string, rounds int, progress io.Writer) (Report, error) {
	if rounds < 1 {
		rounds = 1
	}
	var re *regexp.Regexp
	if filter != "" {
		var err error
		if re, err = regexp.Compile(filter); err != nil {
			return Report{}, fmt.Errorf("benchio: bad filter: %w", err)
		}
	}
	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibNs:    calibrate(),
	}
	ordered := append([]Benchmark(nil), registry...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })
	for _, bm := range ordered {
		if re != nil && !re.MatchString(bm.Name) {
			continue
		}
		var best Result
		for round := 0; round < rounds; round++ {
			r := testing.Benchmark(bm.F)
			res := Result{
				Name:        bm.Name,
				Runs:        r.N,
				NsPerOp:     nsPerOp(r),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			if len(r.Extra) > 0 {
				res.Extra = make(map[string]float64, len(r.Extra))
				for k, v := range r.Extra {
					res.Extra[k] = v
				}
			}
			if round == 0 || res.NsPerOp < best.NsPerOp {
				best = res
			}
		}
		rep.Results = append(rep.Results, best)
		if progress != nil {
			fmt.Fprintf(progress, "%-28s %12.0f ns/op %8d B/op %6d allocs/op\n",
				best.Name, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp)
		}
	}
	if len(rep.Results) == 0 {
		return rep, fmt.Errorf("benchio: filter %q matched no benchmarks", filter)
	}
	return rep, nil
}

// Write serializes a report as indented JSON.
func Write(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile writes a report to path.
func WriteFile(path string, rep Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a report from path.
func ReadFile(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("benchio: parsing %s: %w", path, err)
	}
	return rep, nil
}

// Regression is one benchmark that got slower (or started allocating)
// beyond tolerance relative to the baseline.
type Regression struct {
	Name string
	// OldNorm and NewNorm are calibration-normalized ns/op.
	OldNorm, NewNorm float64
	// Ratio is NewNorm/OldNorm (1.30 = 30% slower than baseline).
	Ratio float64
	// AllocRegression marks a zero-alloc benchmark that now allocates.
	AllocRegression bool
	OldAllocs       int64
	NewAllocs       int64
}

func (r Regression) String() string {
	if r.AllocRegression {
		return fmt.Sprintf("%s: allocs/op %d → %d (was allocation-free)", r.Name, r.OldAllocs, r.NewAllocs)
	}
	return fmt.Sprintf("%s: %.2fx slower (normalized %.0f → %.0f ns/op)", r.Name, r.Ratio, r.OldNorm, r.NewNorm)
}

// Compare diffs current against baseline and returns every regression:
// a calibration-normalized slowdown beyond tol (0.25 = 25%), or a
// zero-allocs/op benchmark that now allocates. Benchmarks present in
// only one report are ignored (the trajectory may grow or shrink).
func Compare(baseline, current Report, tol float64) []Regression {
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	calibOld, calibNew := baseline.CalibNs, current.CalibNs
	var regs []Regression
	for _, cur := range current.Results {
		old, ok := base[cur.Name]
		if !ok {
			continue
		}
		if calibOld > 0 && calibNew > 0 {
			oldNorm := old.NsPerOp / calibOld
			newNorm := cur.NsPerOp / calibNew
			if oldNorm > 0 && newNorm/oldNorm > 1+tol {
				regs = append(regs, Regression{
					Name: cur.Name, OldNorm: oldNorm, NewNorm: newNorm, Ratio: newNorm / oldNorm,
				})
				continue
			}
		}
		if old.AllocsPerOp == 0 && cur.AllocsPerOp > 0 {
			regs = append(regs, Regression{
				Name: cur.Name, AllocRegression: true,
				OldAllocs: old.AllocsPerOp, NewAllocs: cur.AllocsPerOp,
			})
		}
	}
	return regs
}
