package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SpanID identifies one span within a Tracer. IDs are assigned
// monotonically from 1; 0 means "no span" (no parent).
type SpanID uint64

// Attr is one key=value annotation on a span. Values are strings so
// spans marshal to flat, grep-able JSON; callers strconv numbers.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation. EndUnixNs == 0 means still active.
// Parent links let a consumer reassemble the tree: a distributed sweep
// is one "sweep" span with a "shard" child per dispatched shard.
type Span struct {
	ID        SpanID `json:"id"`
	Parent    SpanID `json:"parent,omitempty"`
	Name      string `json:"name"`
	StartUnix int64  `json:"start_unix_ns"`
	EndUnix   int64  `json:"end_unix_ns,omitempty"`
	Attrs     []Attr `json:"attrs,omitempty"`
}

// Tracer is a fixed-capacity ring of spans: Begin overwrites the
// oldest slot once the ring wraps, so memory is bounded and a
// long-running coordinator keeps the most recent window of work.
// All methods are mutex-guarded — spans mark coarse operations
// (sweeps, shards, requests), never per-fold kernel work, so the lock
// is uncontended in practice.
type Tracer struct {
	mu   sync.Mutex
	ring []Span
	seq  uint64 // last assigned SpanID; slot of id is (id-1) % cap
}

// NewTracer returns a tracer keeping the most recent capacity spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Span, 0, capacity)}
}

// Begin starts a span and returns its ID. parent is 0 for a root span.
func (t *Tracer) Begin(name string, parent SpanID, attrs ...Attr) SpanID {
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.seq++
	sp := Span{ID: SpanID(t.seq), Parent: parent, Name: name, StartUnix: now, Attrs: attrs}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[(t.seq-1)%uint64(cap(t.ring))] = sp
	}
	t.mu.Unlock()
	return sp.ID
}

// End closes the span. Ending an already-evicted (ring-overwritten) or
// unknown ID is a silent no-op, as is id 0.
func (t *Tracer) End(id SpanID) {
	if id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	if sp := t.slot(id); sp != nil {
		sp.EndUnix = now
	}
	t.mu.Unlock()
}

// Annotate appends attributes to a live (or finished, not-yet-evicted)
// span — retry counts, the worker that finally served a shard.
func (t *Tracer) Annotate(id SpanID, attrs ...Attr) {
	if id == 0 || len(attrs) == 0 {
		return
	}
	t.mu.Lock()
	if sp := t.slot(id); sp != nil {
		sp.Attrs = append(sp.Attrs, attrs...)
	}
	t.mu.Unlock()
}

// slot returns the ring entry for id if it has not been overwritten.
// Caller holds t.mu.
func (t *Tracer) slot(id SpanID) *Span {
	i := (uint64(id) - 1) % uint64(cap(t.ring))
	if i < uint64(len(t.ring)) && t.ring[i].ID == id {
		return &t.ring[i]
	}
	return nil
}

// Snapshot returns the retained spans ordered oldest-first.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		out = append(out, t.ring...)
	} else {
		// Full ring: oldest entry sits just past the newest write.
		start := t.seq % uint64(cap(t.ring))
		out = append(out, t.ring[start:]...)
		out = append(out, t.ring[:start]...)
	}
	// Clone attrs: a later Annotate must not race a snapshot reader
	// through a shared backing array.
	for i := range out {
		out[i].Attrs = append([]Attr(nil), out[i].Attrs...)
	}
	return out
}

// WriteJSON writes {"spans":[...]} oldest-first.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Spans []Span `json:"spans"`
	}{Spans: t.Snapshot()})
}
