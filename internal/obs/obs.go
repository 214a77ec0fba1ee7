// Package obs is the repo's observability core: a dependency-free
// metrics registry (atomic counters, gauges, fixed-bucket histograms)
// with Prometheus text exposition, plus a ring-buffered in-process span
// tracer (trace.go).
//
// The design contract is "allocation-free on the hot path": every
// instrument is a concrete struct, so callers hold plain pointers and a
// recording call is one or a few atomic operations, never an interface
// dispatch or an allocation.
//
// Two kinds of registry coexist by convention, and both always record:
//
//   - Default() is the one process-wide registry, backing the hot-path
//     series (kernel, sweep, valency, convergence). The kernel alone can
//     be detached from it (core.SetObsRegistry(nil)), which is the
//     baseline the instrumentation overhead gates measure against.
//   - Per-instance registries (one per Server / Coordinator / Worker)
//     back request counters and status endpoints.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down. The zero value is ready
// to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative-export histogram. Buckets are
// the sorted upper bounds passed at registration; an implicit +Inf
// bucket catches the tail. Observe is lock-free: one binary search plus
// three atomic adds.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; [i] counts v <= bounds[i], last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns a snapshot of the per-bucket counts, one per
// bound plus a final +Inf bucket. The snapshot is not atomic across
// buckets.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// DurationBuckets is the default latency bucket ladder, in seconds:
// 1µs to 10s, roughly ×3 per step. Wide enough for a 180ns kernel
// round (first bucket) and a multi-second distributed sweep (tail).
func DurationBuckets() []float64 {
	return []float64{
		1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4,
		1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10,
	}
}

// RatioBuckets is the default bucket ladder for values in [0, 1]
// (contraction rates, hit rates): 0.05-wide linear buckets up to 1.0;
// expansion (> 1.0, a round that grew the diameter) lands in +Inf.
func RatioBuckets() []float64 {
	out := make([]float64, 20)
	for i := range out {
		out[i] = float64(i+1) * 0.05
	}
	out[19] = 1.0 // exact, so rate == 1.0 is "no contraction", not +Inf
	return out
}

// metricKind discriminates the registry's name table.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type metric struct {
	kind      metricKind
	help      string
	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	histogram *Histogram
}

// Registry is a named collection of instruments. Registration is
// idempotent and first-wins: asking for an already-registered name of
// the same kind returns the existing instrument, so independent call
// sites can share a series without coordination. Registering a name
// under a different kind panics — that is a programming error, not a
// runtime condition.
//
// Names follow Prometheus conventions and may carry a fixed label set
// inline: `repro_server_requests_total{endpoint="run"}`. The exporter
// groups such series under one HELP/TYPE header per base name.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, help, kindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	c := m.counter
	r.mu.Unlock()
	return c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookup(name, help, kindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	g := m.gauge
	r.mu.Unlock()
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for quantities that already live elsewhere (cache sizes,
// queue depths under someone else's lock). First registration wins;
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.lookup(name, help, kindGaugeFunc)
	if m.gaugeFn == nil {
		m.gaugeFn = fn
	}
	r.mu.Unlock()
}

// Histogram registers (or finds) a histogram with the given sorted
// bucket upper bounds (+Inf is implicit). Bounds are only consulted
// on first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.lookup(name, help, kindHistogram)
	if m.histogram == nil {
		if !sort.Float64sAreSorted(bounds) {
			r.mu.Unlock()
			panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Uint64, len(h.bounds)+1)
		m.histogram = h
	}
	h := m.histogram
	r.mu.Unlock()
	return h
}

// lookup finds or creates the named metric entry and returns with
// r.mu HELD; the caller fills the kind-specific slot and unlocks.
func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			r.mu.Unlock()
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{kind: kind, help: help}
	r.metrics[name] = m
	return m
}

// CounterValue returns the named counter's value, or 0 if absent.
// Convenience for status endpoints reading back their own registry.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.Lock()
	m := r.metrics[name]
	r.mu.Unlock()
	if m == nil || m.kind != kindCounter {
		return 0
	}
	return m.counter.Value()
}

// GaugeValue returns the named gauge's current value (including
// GaugeFunc gauges, which are evaluated), or 0 if absent.
func (r *Registry) GaugeValue(name string) float64 {
	r.mu.Lock()
	m := r.metrics[name]
	r.mu.Unlock()
	if m == nil {
		return 0
	}
	switch m.kind {
	case kindGauge:
		return m.gauge.Value()
	case kindGaugeFunc:
		return m.gaugeFn()
	}
	return 0
}

// defaultRegistry backs the process-wide hot-path series.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }
