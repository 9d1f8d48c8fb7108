package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// handleJobEvents answers GET /v1/jobs/{id}/events with a Server-Sent
// Events stream: one `progress` event per completed sweep panel (data:
// the experiments.Progress JSON), then exactly one terminal event named
// after the job's final state (`done`, `failed`, or `cancelled`; data:
// the full job document), after which the stream closes. A job that is
// already finished streams its last progress (if any) and the terminal
// event immediately. Progress events are lossy for slow consumers —
// intermediate panels may be skipped, never reordered — and the
// terminal event always carries the final progress. The stream is
// tenant-scoped like the job document: another tenant's job id answers
// 404 unless that tenant's own request coalesced onto the job.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok { // unreachable with net/http servers; defensive for exotic mounts
		writeError(w, http.StatusInternalServerError, "unsupported", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch := j.subscribe(32)
	defer j.unsubscribe(ch)
	emit := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil { // unreachable: both payload types marshal by construction
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, b)
		fl.Flush()
	}
	for {
		select {
		case p := <-ch:
			emit("progress", p)
		case <-r.Context().Done():
			return
		case <-j.done:
			// Drain progress that raced with completion, then emit the
			// terminal event and close the stream.
			for {
				select {
				case p := <-ch:
					emit("progress", p)
				default:
					st := j.status()
					emit(st.Status, st)
					return
				}
			}
		}
	}
}
