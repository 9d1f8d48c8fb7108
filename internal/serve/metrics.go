package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// metrics holds the service counters exposed at GET /metrics in the
// Prometheus text exposition format (no client library — the format is
// plain text and the repo takes no dependencies). Everything is
// monotonic counters plus latency sums, aggregated per normalized
// route, so one scrape answers "how much traffic, how slow, how often
// cached".
type metrics struct {
	mu       sync.Mutex
	requests map[routeCode]int64
	latNs    map[string]int64
	latCount map[string]int64
}

type routeCode struct {
	route string
	code  int
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[routeCode]int64),
		latNs:    make(map[string]int64),
		latCount: make(map[string]int64),
	}
}

// observe records one served request.
func (m *metrics) observe(route string, code int, dur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[routeCode{route, code}]++
	m.latNs[route] += dur.Nanoseconds()
	m.latCount[route]++
}

// tenantStats bundles the per-tenant series for one /metrics render:
// cumulative requests, 429s by reason, enforcement cancellations, and
// the current queued/running job gauges. Label cardinality is bounded
// by the token table (plus "anonymous"), never by traffic.
type tenantStats struct {
	requests  map[string]int64
	throttled map[throttleKey]int64
	cancelled map[string]int64
	queued    map[string]int
	running   map[string]int
}

// write renders the exposition text. Lines are emitted in sorted label
// order so scrapes are stable. OPERATIONS.md documents every series
// and its alerting hints.
func (m *metrics) write(w io.Writer, st storeStats, coalesced int64, jobs map[string]int, expired int64, datasets int, poolBytes int64, shutdownDrained, shutdownCancelled int64, tenants tenantStats) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# TYPE htdp_requests_total counter")
	keys := make([]routeCode, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "htdp_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.requests[k])
	}

	fmt.Fprintln(w, "# TYPE htdp_request_latency_seconds summary")
	routes := make([]string, 0, len(m.latCount))
	for r := range m.latCount {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		fmt.Fprintf(w, "htdp_request_latency_seconds_sum{route=%q} %g\n", r, float64(m.latNs[r])/1e9)
		fmt.Fprintf(w, "htdp_request_latency_seconds_count{route=%q} %d\n", r, m.latCount[r])
	}

	fmt.Fprintln(w, "# TYPE htdp_cache_hits_total counter")
	fmt.Fprintf(w, "htdp_cache_hits_total %d\n", st.Hits)
	fmt.Fprintln(w, "# TYPE htdp_cache_disk_hits_total counter")
	fmt.Fprintf(w, "htdp_cache_disk_hits_total %d\n", st.DiskHits)
	fmt.Fprintln(w, "# TYPE htdp_cache_misses_total counter")
	fmt.Fprintf(w, "htdp_cache_misses_total %d\n", st.Misses)
	fmt.Fprintln(w, "# TYPE htdp_cache_disk_errors_total counter")
	fmt.Fprintf(w, "htdp_cache_disk_errors_total %d\n", st.DiskErrs)
	fmt.Fprintln(w, "# TYPE htdp_cache_entries gauge")
	fmt.Fprintf(w, "htdp_cache_entries %d\n", st.MemEntries)
	fmt.Fprintln(w, "# TYPE htdp_cache_mem_bytes gauge")
	fmt.Fprintf(w, "htdp_cache_mem_bytes %d\n", st.MemBytes)
	fmt.Fprintln(w, "# TYPE htdp_cache_disk_entries gauge")
	fmt.Fprintf(w, "htdp_cache_disk_entries %d\n", st.DiskEntries)
	fmt.Fprintln(w, "# TYPE htdp_cache_disk_bytes gauge")
	fmt.Fprintf(w, "htdp_cache_disk_bytes %d\n", st.DiskBytes)

	fmt.Fprintln(w, "# TYPE htdp_singleflight_coalesced_total counter")
	fmt.Fprintf(w, "htdp_singleflight_coalesced_total %d\n", coalesced)

	fmt.Fprintln(w, "# TYPE htdp_jobs gauge")
	states := make([]string, 0, len(jobs))
	for s := range jobs {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "htdp_jobs{status=%q} %d\n", s, jobs[s])
	}
	fmt.Fprintln(w, "# TYPE htdp_jobs_expired_total counter")
	fmt.Fprintf(w, "htdp_jobs_expired_total %d\n", expired)
	fmt.Fprintln(w, "# TYPE htdp_shutdown_drained_total counter")
	fmt.Fprintf(w, "htdp_shutdown_drained_total %d\n", shutdownDrained)
	fmt.Fprintln(w, "# TYPE htdp_shutdown_cancelled_total counter")
	fmt.Fprintf(w, "htdp_shutdown_cancelled_total %d\n", shutdownCancelled)

	fmt.Fprintln(w, "# TYPE htdp_tenant_requests_total counter")
	for _, t := range sortedKeys(tenants.requests) {
		fmt.Fprintf(w, "htdp_tenant_requests_total{tenant=%q} %d\n", t, tenants.requests[t])
	}
	fmt.Fprintln(w, "# TYPE htdp_tenant_throttled_total counter")
	tkeys := make([]throttleKey, 0, len(tenants.throttled))
	for k := range tenants.throttled {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool {
		if tkeys[i].tenant != tkeys[j].tenant {
			return tkeys[i].tenant < tkeys[j].tenant
		}
		return tkeys[i].reason < tkeys[j].reason
	})
	for _, k := range tkeys {
		fmt.Fprintf(w, "htdp_tenant_throttled_total{tenant=%q,reason=%q} %d\n", k.tenant, k.reason, tenants.throttled[k])
	}
	fmt.Fprintln(w, "# TYPE htdp_tenant_cancelled_over_quota_total counter")
	for _, t := range sortedKeys(tenants.cancelled) {
		fmt.Fprintf(w, "htdp_tenant_cancelled_over_quota_total{tenant=%q} %d\n", t, tenants.cancelled[t])
	}
	fmt.Fprintln(w, "# TYPE htdp_tenant_jobs gauge")
	for _, t := range sortedKeys(tenants.queued) {
		fmt.Fprintf(w, "htdp_tenant_jobs{tenant=%q,state=\"queued\"} %d\n", t, tenants.queued[t])
		fmt.Fprintf(w, "htdp_tenant_jobs{tenant=%q,state=\"running\"} %d\n", t, tenants.running[t])
	}

	fmt.Fprintln(w, "# TYPE htdp_pool_datasets gauge")
	fmt.Fprintf(w, "htdp_pool_datasets %d\n", datasets)
	fmt.Fprintln(w, "# TYPE htdp_pool_resident_bytes gauge")
	fmt.Fprintf(w, "htdp_pool_resident_bytes %d\n", poolBytes)
}

// sortedKeys returns a map's keys in sorted order for stable scrapes.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
