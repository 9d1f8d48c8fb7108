package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Times are nanoseconds
// from the tracer's start; Parent is 0 for a root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	RID    int    `json:"rid"` // request id shared by a request's spans
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Rows is the number of rows a data span returned.
	Rows int `json:"rows,omitempty"`
}

// Dur is the span's wall time.
func (s *Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run writes them out. With
// recording off, Begin and End do nothing, which is what the trace
// overhead is measured against.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	on     bool
	spans  []Span
	nextID int
}

// NewTracer returns a recording tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now(), on: true} }

// SetRecording switches span recording on or off.
func (t *Tracer) SetRecording(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// Begin opens a span and returns its id (0 while recording is off).
func (t *Tracer) Begin(parent, rid int, name, attr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.nextID++
	t.spans = append(t.spans, Span{ID: t.nextID, Parent: parent, RID: rid, Name: name, Attr: attr, Start: int64(time.Since(t.t0))})
	return t.nextID
}

// End closes span id, recording rows for data spans.
func (t *Tracer) End(id, rows int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Rows = now, rows
	t.mu.Unlock()
}

// EndAttr closes span id and sets its attribute, for an attribute known
// only once the call returns (a response's cache tier).
func (t *Tracer) EndAttr(id, rows int, attr string) {
	t.End(id, rows)
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Attr = attr
	t.mu.Unlock()
}

// Add records a span whose bounds were observed rather than bracketed
// (a sweep panel, from one progress event to the next).
func (t *Tracer) Add(s Span, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.nextID++
	s.ID, s.Start, s.End = t.nextID, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.spans = append(t.spans, s)
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Children may overlap (parallel sweep trials), so the union is taken
// rather than the sum.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// encodeSpans renders spans as JSON lines.
func encodeSpans(spans []Span) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range spans {
		enc.Encode(&spans[i])
	}
	return b.Bytes()
}
