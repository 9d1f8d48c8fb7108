package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Record is the per-request log entry: the request as sent and the
// response as received, one pair per call. Times are milliseconds from
// the start of the measured window. A closed-loop request is due when
// its client's previous response completed, so Sent−Due is the
// generator's own delay in both loop kinds.
type Record struct {
	ID     int     `json:"id"`
	Tenant string  `json:"tenant"`
	Method string  `json:"method"`
	Path   string  `json:"path"`
	Label  string  `json:"label"`
	DueMS  float64 `json:"due_ms"`
	SentMS float64 `json:"sent_ms"`
	DoneMS float64 `json:"done_ms"`
	Status int     `json:"status"`
	Tier   string  `json:"tier,omitempty"`
	Bytes  int     `json:"bytes"`
	Err    string  `json:"error,omitempty"`
	// LagMS is how late the generator itself issued the request.
	LagMS float64 `json:"lag_ms"`
}

// OK reports a 2xx answer with no transport error or timeout.
func (r *Record) OK() bool { return r.Err == "" && r.Status >= 200 && r.Status < 300 }

// Refused reports an admission or queue refusal (429, 503).
func (r *Record) Refused() bool {
	return r.Status == http.StatusTooManyRequests || r.Status == http.StatusServiceUnavailable
}

// LatencyMS is done minus due; a failed request misses every latency
// limit, so it counts as +Inf.
func (r *Record) LatencyMS() float64 {
	if !r.OK() {
		return math.Inf(1)
	}
	return r.DoneMS - r.DueMS
}

// Conn is one client connection: an HTTP/1.1 keep-alive transport
// limited to a single TCP connection.
type Conn struct {
	c    *http.Client
	base string
	t0   time.Time
}

// NewConn opens a client whose times are measured from t0.
func NewConn(base string, t0 time.Time) *Conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &Conn{c: &http.Client{Transport: tr}, base: base, t0: t0}
}

// Close drops the connection.
func (c *Conn) Close() { c.c.CloseIdleConnections() }

func (c *Conn) since(t time.Time) float64 { return float64(t.Sub(c.t0)) / 1e6 }

// Do sends one request, fills rec (Sent, Done, Status, Tier, Bytes,
// Err) and returns the response body.
func (c *Conn) Do(ctx context.Context, method, path, token string, body []byte, rec *Record) []byte {
	rec.Method, rec.Path = method, path
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		rec.Err = err.Error()
		return nil
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec.SentMS = c.since(time.Now())
	resp, err := c.c.Do(req)
	if err != nil {
		rec.DoneMS = c.since(time.Now())
		rec.Err = err.Error()
		return nil
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.DoneMS = c.since(time.Now())
	rec.Status, rec.Tier, rec.Bytes = resp.StatusCode, resp.Header.Get("X-Htdp-Cache"), len(b)
	if err != nil {
		rec.Err = err.Error()
	}
	return b
}

// Follow subscribes to a job's SSE stream and returns the terminal
// event's name (done, failed or cancelled) once it arrives.
func (c *Conn) Follow(ctx context.Context, id, token string, rec *Record) (string, error) {
	rec.Method, rec.Path = http.MethodGet, "/v1/jobs/"+id+"/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+rec.Path, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	rec.SentMS = c.since(time.Now())
	resp, err := c.c.Do(req)
	if err != nil {
		rec.Err = err.Error()
		return "", err
	}
	defer resp.Body.Close()
	rec.Status = resp.StatusCode
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		rec.Bytes += len(sc.Bytes()) + 1
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if ok && ev != "progress" {
			rec.DoneMS = c.since(time.Now())
			io.Copy(io.Discard, resp.Body) // the server closes after the terminal event
			return ev, nil
		}
	}
	rec.DoneMS = c.since(time.Now())
	err = sc.Err()
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	rec.Err = err.Error()
	return "", err
}

// Window is the outcome of one measured window.
type Window struct {
	Records []Record
	// Bodies holds response bytes by request id, for the output checks
	// and the traced replay.
	Bodies  map[int][]byte
	Elapsed time.Duration
	// Ops counts completed operations; Primary those of the workload's
	// throughput class (runs, reads, or sweeps).
	Ops, Primary int
	// Latency holds the latency class's samples in ms (+Inf = failed).
	Latency []float64
	// Makespan is the sweep burst's, for sweep-storm.
	Makespan time.Duration
	// Mismatches lists every failed output check.
	Mismatches []string
}

func (w *Window) mismatch(format string, args ...any) {
	w.Mismatches = append(w.Mismatches, fmt.Sprintf(format, args...))
}

// openLoop sends reqs at their due times over conns, a dispatcher
// handing each request to the first free connection; a request waits
// (and its latency grows) while every connection is busy. stop, when
// non-nil, is consulted before each arrival and ends the schedule
// early. It returns once every sent request has completed.
func openLoop(ctx context.Context, conns []*Conn, t0 time.Time, reqs []Req, recs []Record, bodies [][]byte, tokens map[string]string, stop func(due time.Duration) bool) int {
	work := make(chan int)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			for i := range work {
				q := reqs[i]
				bodies[i] = c.Do(ctx, http.MethodPost, q.Path(), tokens[q.Tenant], q.Body(), &recs[i])
			}
		}(c)
	}
	sent := 0
	free := t0 // when the previous request was handed to a connection
	for i, q := range reqs {
		if stop != nil && stop(q.Due) {
			break
		}
		due := t0.Add(q.Due)
		sleepUntil(due)
		recs[i] = Record{ID: q.ID, Tenant: q.Tenant, Label: q.Label(), DueMS: float64(q.Due) / 1e6}
		// Lateness the generator caused: past the due time, or past the
		// moment a connection freed up when every one was busy (that
		// wait is the server's and is already in the latency).
		if free.After(due) {
			due = free
		}
		recs[i].LagMS = float64(time.Since(due)) / 1e6
		select {
		case work <- i:
			sent++
		case <-ctx.Done():
		}
		free = time.Now()
		if ctx.Err() != nil {
			break
		}
	}
	close(work)
	wg.Wait()
	return sent
}

// sleepUntil blocks the calling thread in nanosleep until t. A Go timer
// would do, but the runtime parks an idle scheduler in epoll_wait,
// whose millisecond resolution alone makes a sub-millisecond arrival
// gap up to a millisecond late.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: recompute the rest and sleep again
	}
}

// encodeRecords renders records as JSON lines.
func encodeRecords(recs []Record) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range recs {
		enc.Encode(&recs[i])
	}
	return b.Bytes()
}
