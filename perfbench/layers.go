package main

import (
	"fmt"
	"strings"
	"time"

	"htdp/internal/vecmath"
)

// layerView indexes a replay's spans for the per-layer metrics.
type layerView struct {
	spans []Span
	byID  map[int]*Span
	kids  map[int][]*Span
	self  map[int]time.Duration
}

func newLayerView(spans []Span) *layerView {
	v := &layerView{spans: spans, byID: map[int]*Span{}, kids: map[int][]*Span{}, self: SelfTimes(spans)}
	for i := range spans {
		s := &spans[i]
		v.byID[s.ID] = s
		if s.Parent != 0 {
			v.kids[s.Parent] = append(v.kids[s.Parent], s)
		}
	}
	return v
}

// runBreakdown splits one traced run computation's wall time by layer.
type runBreakdown struct {
	wall, core, data, loss, serve, unattributed time.Duration
}

func (v *layerView) breakdown(root int) runBreakdown {
	b := runBreakdown{wall: v.byID[root].Dur(), unattributed: v.self[root]}
	for _, k := range v.kids[root] {
		switch {
		case k.Name == "data.Acquire":
			b.data += k.Dur()
		case strings.HasPrefix(k.Name, "core."):
			b.core += v.self[k.ID]
		case k.Name == "loss.EmpiricalSource":
			b.loss += v.self[k.ID]
		case k.Name == "serve.encode":
			b.serve += k.Dur()
		}
		for _, g := range v.kids[k.ID] {
			b.data += g.Dur()
		}
	}
	return b
}

// LayerMetrics derives every per-layer metric from the replay, the
// kernel probes and the untraced window.
func (b *Bench) LayerMetrics(rp *Replayer, w *Window, m0, m1 map[string]float64, lagP99, overheadPct float64, kern []Metric) ([]Metric, []string) {
	v := newLayerView(rp.tr.Spans())
	var out []Metric
	add := func(name, unit string, vals []float64, note string) {
		out = append(out, Metric{Name: name, Unit: unit, Value: vecmath.Median(vals), N: len(vals), Note: note})
	}
	source := func(probe bool) string {
		if probe {
			return "probe"
		}
		return "replay"
	}

	// serve
	var hitMem, hitDisk []float64
	for i := range v.spans {
		s := &v.spans[i]
		if s.Name == "serve.ServeHTTP" {
			switch s.Attr {
			case "hit":
				hitMem = append(hitMem, float64(s.Dur())/1e3)
			case "disk":
				hitDisk = append(hitDisk, float64(s.Dur())/1e3)
			}
		}
	}
	add("serve.hit_mem_us", "us", hitMem, "in-process ServeHTTP, memory tier")
	add("serve.hit_disk_us", "us", hitDisk, "in-process ServeHTTP, disk tier")
	d := func(k string) float64 { return m1[k] - m0[k] }
	hits, disk, miss := d("htdp_cache_hits_total"), d("htdp_cache_disk_hits_total"), d("htdp_cache_misses_total")
	lookups := max(hits+disk+miss, 1)
	out = append(out,
		Metric{Name: "serve.mem_hit_ratio", Unit: "fraction", Value: hits / lookups, N: int(lookups), Note: "window /metrics delta"},
		Metric{Name: "serve.disk_hit_ratio", Unit: "fraction", Value: disk / lookups, N: int(lookups), Note: "window /metrics delta"},
		Metric{Name: "serve.coalesced_ratio", Unit: "fraction", Value: d("htdp_singleflight_coalesced_total") / max(miss, 1), N: int(miss), Note: "coalesced ÷ misses, window"},
		Metric{Name: "serve.disk_errors", Unit: "count", Value: d("htdp_cache_disk_errors_total"), N: 1, Note: "window /metrics delta"},
	)
	refused, failed := 0, 0
	for i := range w.Records {
		r := &w.Records[i]
		switch {
		case r.Refused():
			refused++
		case !r.OK():
			failed++
		}
	}
	var overhead, wait []float64
	for _, c := range rp.Computes {
		if c.Req.Run == nil || v.byID[c.Span] == nil {
			continue
		}
		compute := v.byID[c.Span].Dur()
		if s := v.byID[c.Serve]; s != nil && s.Attr == "miss" {
			overhead = append(overhead, float64(s.Dur()-compute)/1e6)
		}
		if c.WindowMS > 0 {
			wait = append(wait, c.WindowMS-float64(compute)/1e6)
		}
	}
	add("serve.miss_overhead_ms", "ms", overhead, "ServeHTTP on a fresh key minus the traced compute")
	add("serve.interactive_wait_ms", "ms", wait, "window latency minus the traced compute of the same request")
	out = append(out,
		Metric{Name: "serve.refused", Unit: "count", Value: float64(refused), N: len(w.Records), Note: "429/503 in the window"},
		Metric{Name: "serve.failed", Unit: "count", Value: float64(failed), N: len(w.Records), Note: "other failures in the window"},
	)

	// experiments
	var opens []float64
	for _, q := range sweepCycle {
		var ms, mb []float64
		note := ""
		for _, c := range rp.Computes {
			if c.Req.Sweep != nil && c.Req.Sweep.Experiment == q.Experiment && v.byID[c.Span] != nil {
				ms = append(ms, float64(v.byID[c.Span].Dur())/1e6)
				mb = append(mb, c.AllocMB)
				note = source(c.Probe)
				if q.Experiment == "streaming" {
					opens = append(opens, float64(c.Opens))
				}
			}
		}
		add("experiments.sweep_ms."+q.Experiment, "ms", ms, note)
		add("experiments.alloc_mb."+q.Experiment, "MB", mb, note+"; MemStats.TotalAlloc delta")
	}
	add("experiments.source_opens.streaming", "count", opens, "source factory calls")

	// core, data and loss, from the traced run computations
	type key struct{ label, backend string }
	coreMS := map[key][]float64{}
	coreSrc := map[key]string{}
	iterUS := map[string][]float64{}
	var dataSelf, wall = map[string]time.Duration{}, map[string]time.Duration{}
	var chunkDur, rowDur = map[string]time.Duration{}, map[string]time.Duration{}
	var chunkRows, rowN = map[string]int{}, map[string]int{}
	riskMS := map[string][]float64{}
	var acquire []float64
	var unattributed, attributedWall time.Duration
	var attrib []string
	for _, c := range rp.Computes {
		if !c.Cold || v.byID[c.Span] == nil {
			continue
		}
		be := c.Req.Backend()
		k := key{c.Req.Label(), be}
		bd := v.breakdown(c.Span)
		coreMS[k] = append(coreMS[k], float64(bd.core)/1e6)
		coreSrc[k] = source(c.Probe)
		if be == "gen" && c.Req.Run.T > 0 {
			iterUS[k.label] = append(iterUS[k.label], float64(bd.core)/1e3/float64(c.Req.Run.T))
		}
		dataSelf[be] += bd.data
		wall[be] += bd.wall
		unattributed += bd.unattributed
		attributedWall += bd.wall
		for _, kid := range v.kids[c.Span] {
			if kid.Name == "data.Acquire" {
				acquire = append(acquire, float64(kid.Dur())/1e3)
			}
			if kid.Name == "loss.EmpiricalSource" {
				riskMS[be] = append(riskMS[be], float64(v.self[kid.ID])/1e6)
			}
			for _, g := range v.kids[kid.ID] {
				switch g.Name {
				case "data.Chunk":
					chunkDur[be] += g.Dur()
					chunkRows[be] += g.Rows
				case "data.RowAt":
					rowDur[be] += g.Dur()
					rowN[be]++
				}
			}
		}
		if !c.Probe && c.Req.Key < 0 && b.W.Name == "cold-runs" {
			attrib = append(attrib, fmt.Sprintf("attrib request=%d %-16s wall=%8.2fms core=%8.2f data=%8.2f loss=%7.2f serve.encode=%6.3f unattributed=%6.3f (%.2f%%)",
				c.Req.ID, k.label+"/"+be, ms(bd.wall), ms(bd.core), ms(bd.data), ms(bd.loss), ms(bd.serve), ms(bd.unattributed),
				100*float64(bd.unattributed)/float64(max(bd.wall, 1))))
		}
	}
	// coldMix holds every algorithm once per backend.
	for _, q := range coldMix {
		k := key{Req{Run: &q}.Label(), Req{Run: &q}.Backend()}
		add("core.run_ms."+k.label+"."+k.backend, "ms", coreMS[k], coreSrc[k]+"; self time")
	}
	for _, q := range coldMix {
		if r := (Req{Run: &q}); r.Backend() == "gen" {
			add("core.iter_us."+r.Label(), "us", iterUS[r.Label()], "gen self time ÷ T")
		}
	}
	perRow := map[string]float64{}
	for _, be := range []string{"csv", "gen"} {
		perRow[be] = float64(chunkDur[be]) / 1e3 / float64(max(chunkRows[be], 1))
		out = append(out, Metric{Name: "data.chunk_us_per_row." + be, Unit: "us", Value: perRow[be], N: chunkRows[be], Note: "Chunk time ÷ rows returned"})
	}
	rowUS := map[string]float64{}
	for _, be := range []string{"csv", "gen"} {
		rowUS[be] = float64(rowDur[be]) / 1e3 / float64(max(rowN[be], 1))
		out = append(out, Metric{Name: "data.rowat_us." + be, Unit: "us", Value: rowUS[be], N: rowN[be], Note: "mean RowAt"})
	}
	out = append(out, Metric{Name: "data.rowat_amplification.csv", Unit: "rows", Value: rowUS["csv"] / perRow["csv"], N: rowN["csv"],
		Note: fmt.Sprintf("rowat_us ÷ chunk_us_per_row: rows parsed per row served, estimated; heavy has %d rows against a %d-row block cache", heavyRows, 8*256)})
	for _, be := range []string{"csv", "gen"} {
		out = append(out, Metric{Name: "data.share." + be, Unit: "fraction", Value: float64(dataSelf[be]) / float64(max(wall[be], 1)), N: 1, Note: "data time ÷ compute wall time"})
	}
	add("data.acquire_us", "us", acquire, "SourcePool.Acquire")
	var index []float64
	for i := range v.spans {
		if v.spans[i].Name == "data.OpenCSV" {
			index = append(index, float64(v.spans[i].Dur())/1e6)
		}
	}
	add("data.index_ms", "ms", index, fmt.Sprintf("OpenCSV of heavy, %d rows", heavyRows))
	for _, be := range []string{"csv", "gen"} {
		add("loss.risk_ms."+be, "ms", riskMS[be], "EmpiricalSource self time")
	}
	out = append(out, kern...)
	out = append(out,
		Metric{Name: "loadgen.lag_p99_ms", Unit: "ms", Value: lagP99, N: len(w.Records), Note: "how late the generator sent, window"},
		Metric{Name: "trace.overhead_pct", Unit: "%", Value: overheadPct, N: len(coldMix), Note: "cold cycle, recording on vs off"},
		Metric{Name: "trace.unattributed_pct", Unit: "%", Value: 100 * float64(unattributed) / float64(max(attributedWall, 1)), N: len(rp.Computes), Note: "run compute time outside every layer span"},
	)
	return out, attrib
}
