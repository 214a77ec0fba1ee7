package distributed

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/httpjson"
)

// sseWriter serializes Server-Sent Events onto one response. Callers
// hold the coordinator's emit lock, so writes never interleave.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (s *sseWriter) event(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// handleSweepStream is the streaming sweep endpoint: one SSE "results"
// event per completed batch (store hits and resolution errors first,
// then each shard as it lands, any order), closed by a "done" event
// carrying SweepStats. Admission runs before the first event, so
// backpressure and validation failures arrive as plain status codes
// (429 + Retry-After, 400, 503) rather than mid-stream aborts; after
// the stream starts, a failure simply truncates it — the absence of
// "done" is the error signal.
func (c *Coordinator) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := httpjson.Decode(w, r, &req); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	f, ok := w.(http.Flusher)
	if !ok {
		httpjson.WriteError(w, http.StatusInternalServerError,
			fmt.Errorf("distributed: connection does not support streaming"))
		return
	}
	sse := &sseWriter{w: w, f: f}
	started := false
	emit := func(ev ResultsEvent) error {
		if !started {
			started = true
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.WriteHeader(http.StatusOK)
		}
		if err := sse.event("results", ev); err != nil {
			return err
		}
		c.met.sseBatches.Inc()
		return nil
	}
	resp, err := c.runSweep(r.Context(), req, emit)
	if err != nil {
		if !started {
			c.writeSweepError(w, err)
		}
		return
	}
	if !started {
		// Unreachable on success (every spec yields exactly one emitted
		// result), but keep "done" on an event-stream response anyway.
		_ = emit(ResultsEvent{})
	}
	_ = sse.event("done", resp.Stats)
}
