package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"htdp/internal/data"
	"htdp/internal/experiments"
	"htdp/internal/randx"
	"htdp/internal/serve"
)

// Dataset shapes. heavy has more rows than one full-data streaming chunk
// (data.StreamRows = 8192) and than the CSV RowAt block cache (8 blocks
// of 256 rows), so a full pass re-parses and a random row read parses a
// whole block. small fits inside the block cache, so its fresh keys
// compute in a few milliseconds.
const (
	heavyRows, heavyCols = 9000, 40
	smallRows, smallCols = 600, 20
)

// Tenants of the generated token file.
var tenantNames = []string{"alpha", "beta", "batch", "interactive"}

// Inputs is everything one seed generates: the CSV files, the token
// file, and the request schedule of every workload.
type Inputs struct {
	Seed      int64
	HeavyCSV  string
	SmallCSV  string
	TokenFile string
	Tokens    map[string]string // tenant → bearer token
}

// Req is one scheduled request. Due is its offset from the start of the
// measured window (open loop); closed-loop requests leave it zero.
type Req struct {
	ID     int                       `json:"id"`
	Tenant string                    `json:"tenant"`
	Run    *serve.RunRequest         `json:"run,omitempty"`
	Sweep  *experiments.SweepRequest `json:"sweep,omitempty"`
	Due    time.Duration             `json:"due_ns,omitempty"`
	// Key indexes the hot-cache key set; -1 for a fresh key.
	Key int `json:"key"`
	// Pair links the two requests of a hot-cache fresh-key pair (0 = none).
	Pair int `json:"pair,omitempty"`
}

// Path returns the endpoint the request is sent to.
func (r Req) Path() string {
	if r.Sweep != nil {
		return "/v1/sweep"
	}
	return "/v1/run"
}

// Body returns the JSON request body.
func (r Req) Body() []byte {
	var v any = r.Run
	if r.Sweep != nil {
		v = r.Sweep
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // unreachable: both request types marshal by construction
	}
	return b
}

// Label names the request's kind for reports: algo/dataset or sweep id.
func (r Req) Label() string {
	if r.Sweep != nil {
		return r.Sweep.Experiment
	}
	name := r.Run.Algo
	if r.Run.Accountant != "" {
		name += "-" + r.Run.Accountant
	}
	return name
}

// Backend names the data backend a run reads: "csv" or "gen".
func (r Req) Backend() string {
	if r.Run != nil && r.Run.Dataset == "demo-linear" {
		return "gen"
	}
	if r.Sweep != nil && r.Sweep.Dataset == "" {
		return "gen"
	}
	return "csv"
}

// stream derives an independent deterministic stream per purpose, so
// adding draws to one schedule never shifts another.
func stream(seed int64, purpose string) *randx.RNG {
	h := uint64(seed)
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return randx.New(int64(h >> 1))
}

// freshSeed draws a request seed; the high bit pattern keeps them away
// from the small seeds the cache could already hold.
func freshSeed(r *randx.RNG) int64 { return 1_000_000 + r.Int63()%(1<<40) }

// WriteInputs generates the files of one seed into dir.
func WriteInputs(dir string, seed int64) (*Inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &Inputs{
		Seed:      seed,
		HeavyCSV:  filepath.Join(dir, "heavy.csv"),
		SmallCSV:  filepath.Join(dir, "small.csv"),
		TokenFile: filepath.Join(dir, "tokens.txt"),
		Tokens:    map[string]string{},
	}
	heavy := csvBytes(data.LinearSource(seed, data.LinearOpt{
		N: heavyRows, D: heavyCols,
		Feature: randx.StudentT{Nu: 3},
		Noise:   randx.LogNormal{Mu: 0, Sigma: 0.8},
	}))
	small := csvBytes(data.LinearSource(seed+1, data.LinearOpt{
		N: smallRows, D: smallCols,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.6},
		Noise:   randx.StudentT{Nu: 3},
	}))
	r := stream(seed, "tokens")
	var tok bytes.Buffer
	tok.WriteString("# generated by perfbench: token tenant weight\n")
	for _, t := range tenantNames {
		var raw [16]byte
		for i := range raw {
			raw[i] = byte(r.Intn(256))
		}
		in.Tokens[t] = hex.EncodeToString(raw[:])
		fmt.Fprintf(&tok, "%s %s 1\n", in.Tokens[t], t)
	}
	for path, b := range map[string][]byte{in.HeavyCSV: heavy, in.SmallCSV: small, in.TokenFile: tok.Bytes()} {
		if err := os.WriteFile(path, b, 0o600); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// csvBytes renders a generated source as a numeric CSV, label last,
// seven significant digits per field.
func csvBytes(g *data.GenSource) []byte {
	ds := g.Materialize()
	var b bytes.Buffer
	buf := make([]byte, 0, 32)
	for i := 0; i < ds.N(); i++ {
		for _, v := range ds.X.Row(i) {
			b.Write(strconv.AppendFloat(buf[:0], v, 'g', 7, 64))
			b.WriteByte(',')
		}
		b.Write(strconv.AppendFloat(buf[:0], ds.Y[i], 'g', 7, 64))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// coldMix is one cycle of the cold-runs workload: every algorithm on
// both backends. T (and dpsgd's batch) keep each request well under a
// second on two cores.
var coldMix = []serve.RunRequest{
	{Dataset: "heavy", Algo: "fw", T: 40},
	{Dataset: "demo-linear", Algo: "fw", T: 40},
	{Dataset: "heavy", Algo: "lasso", T: 3},
	{Dataset: "demo-linear", Algo: "lasso", T: 3},
	{Dataset: "heavy", Algo: "iht", T: 10},
	{Dataset: "demo-linear", Algo: "iht", T: 10},
	{Dataset: "heavy", Algo: "sparseopt", T: 10},
	{Dataset: "demo-linear", Algo: "sparseopt", T: 10},
	{Dataset: "heavy", Algo: "dpsgd", Accountant: "compose", T: 2, Batch: 40},
	{Dataset: "demo-linear", Algo: "dpsgd", Accountant: "compose", T: 20, Batch: 40},
	{Dataset: "heavy", Algo: "dpsgd", Accountant: "rdp", T: 2, Batch: 40},
	{Dataset: "demo-linear", Algo: "dpsgd", Accountant: "rdp", T: 20, Batch: 40},
}

// ColdRuns returns the first n requests of the cold-runs sequence:
// coldMix in order, over and over, each with a fresh seed so every
// request misses the cache.
func ColdRuns(seed int64, n int) []Req {
	r := stream(seed, "cold-runs")
	out := make([]Req, n)
	for i := range out {
		q := coldMix[i%len(coldMix)]
		q.Seed = freshSeed(r)
		out[i] = Req{ID: i, Tenant: "alpha", Run: &q, Key: -1}
	}
	return out
}

// sweepCycle is the sweep-storm burst: one sweep each of Algorithms 1,
// 2, 3 and 5, the streaming sweep over the pooled generator, and DPSGD.
var sweepCycle = []experiments.SweepRequest{
	{Experiment: "fig2", Reps: 1, Scale: 0.02},
	{Experiment: "fig6", Reps: 1, Scale: 0.015},
	{Experiment: "fig7", Reps: 1, Scale: 0.02},
	{Experiment: "fig10", Reps: 1, Scale: 0.01},
	{Experiment: "streaming", Reps: 1, Scale: 0.02, Dataset: "demo-linear"},
	{Experiment: "dpsgd", Reps: 1, Scale: 0.01},
}

// The sweep-storm burst is burstCycles copies of sweepCycle, each sweep
// with its own fresh seed; interactiveRate is the interactive tenant's
// arrival rate (requests per second).
const (
	burstCycles     = 2
	interactiveRate = 20
)

// Storm returns the sweep-storm schedule: the batch burst (all due at
// zero) and the interactive tenant's arrivals. Those are Poisson at
// interactiveRate; the count within the first window seconds is fixed
// at its mean (uniform order statistics), so every run has enough
// samples for its p90, and arrivals continue at the same rate up to
// 3×window while the burst is still running.
func Storm(seed int64, window time.Duration) (burst, interactive []Req) {
	r := stream(seed, "sweep-storm")
	for i := 0; i < burstCycles*len(sweepCycle); i++ {
		q := sweepCycle[i%len(sweepCycle)]
		q.Seed = freshSeed(r)
		burst = append(burst, Req{ID: i, Tenant: "batch", Sweep: &q, Key: -1})
	}
	a := stream(seed, "sweep-storm-arrivals")
	var due []time.Duration
	for i := 0; i < int(interactiveRate*window.Seconds()); i++ {
		due = append(due, time.Duration(a.Float64()*float64(window)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for at := window; ; {
		at += time.Duration(a.Exponential(interactiveRate) * float64(time.Second))
		if at >= 3*window {
			break
		}
		due = append(due, at)
	}
	for i, at := range due {
		q := serve.RunRequest{Dataset: "small", Algo: "fw", T: 8, Seed: freshSeed(a)}
		if i%2 == 1 {
			q.Algo, q.T = "iht", 4
		}
		interactive = append(interactive, Req{ID: len(burst) + i, Tenant: "interactive", Run: &q, Due: at, Key: -1})
	}
	return burst, interactive
}

// Hot-cache shape: the warmed key set (runs on small plus a few small
// sweeps), the arrival rate, and how many arrivals per window are
// fresh-key pairs. Each pair holds both connections while it computes
// and fsyncs, so the pairs stay few enough to leave p90 to the reads.
const (
	hotRunKeys    = 96
	hotSweepKeys  = 4
	hotRate       = 400 // requests per second
	hotFreshPairs = 8
	hotZipfS      = 1.1
	// hotCacheMem bounds the server's memory tier below the key set's
	// bytes, so the Zipf tail is served from the disk tier.
	hotCacheMem = 16 << 10
)

// HotKeys returns the hot-cache key set, warmed during set-up.
func HotKeys(seed int64) []Req {
	r := stream(seed, "hot-keys")
	var keys []Req
	for i := 0; i < hotRunKeys; i++ {
		q := serve.RunRequest{Dataset: "small", Algo: "fw", T: 8, Seed: freshSeed(r)}
		if i%2 == 1 {
			q.Algo, q.T = "iht", 4
		}
		keys = append(keys, Req{Tenant: tenantNames[i%2], Run: &q})
	}
	for i := 0; i < hotSweepKeys; i++ {
		q := experiments.SweepRequest{Experiment: "streaming", Reps: 1, Scale: 0.01, Dataset: "small", Seed: freshSeed(r)}
		keys = append(keys, Req{Tenant: tenantNames[i%2], Sweep: &q})
	}
	for i := range keys {
		keys[i].ID, keys[i].Key = i, i
	}
	return keys
}

// HotReads returns the hot-cache arrivals over horizon: Poisson at
// hotRate, popularity Zipf over a seed-shuffled key order, except for
// hotFreshPairs arrivals that are fresh keys on small, each sent as a
// pair with one due time.
func HotReads(seed int64, keys []Req, horizon time.Duration) []Req {
	r := stream(seed, "hot-reads")
	rank := r.Perm(len(keys))
	cdf := make([]float64, len(keys))
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), hotZipfS)
		cdf[i] = sum
	}
	var due []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(r.Exponential(hotRate) * float64(time.Second))
		if at >= horizon {
			break
		}
		due = append(due, at)
	}
	fresh := map[int]bool{}
	for len(fresh) < min(hotFreshPairs, len(due)) {
		fresh[r.Intn(len(due))] = true
	}
	var out []Req
	pair := 0
	for j, at := range due {
		tenant := tenantNames[r.Intn(2)]
		if fresh[j] {
			pair++
			q := serve.RunRequest{Dataset: "small", Algo: "fw", T: 8, Seed: freshSeed(r)}
			for k := 0; k < 2; k++ {
				out = append(out, Req{ID: len(out), Tenant: tenant, Run: &q, Due: at, Key: -1, Pair: pair})
			}
			continue
		}
		u := r.Float64() * sum
		i := 0
		for i < len(cdf)-1 && cdf[i] < u {
			i++
		}
		k := keys[rank[i]]
		k.ID, k.Tenant, k.Due = len(out), tenant, at
		out = append(out, k)
	}
	return out
}

// WriteSchedule writes every workload's schedule for one seed as JSON
// lines (the byte-identity the tests pin).
func WriteSchedule(path string, seed int64, horizon time.Duration) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	keys := HotKeys(seed)
	burst, inter := Storm(seed, horizon)
	for _, group := range [][]Req{ColdRuns(seed, 2*len(coldMix)), keys, HotReads(seed, keys, horizon), burst, inter} {
		for _, q := range group {
			if err := enc.Encode(q); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o600)
}
