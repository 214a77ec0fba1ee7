package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsRecordNothing(t *testing.T) {
	// The disabled registry hands out nil instruments; every method
	// must be a safe no-op and every read must return zero.
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", DurationBuckets())
	r.GaugeFunc("x_fn", "", func() float64 { return 42 })
	c.Add(3)
	c.Inc()
	g.Set(1.5)
	g.Add(2)
	h.Observe(0.01)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments recorded: c=%d g=%v h=%d/%v",
			c.Value(), g.Value(), h.Count(), h.Sum())
	}
	if r.CounterValue("x_total") != 0 || r.GaugeValue("x_fn") != 0 {
		t.Fatal("nil registry reads nonzero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v out=%q", err, sb.String())
	}
}

func TestRegistrationIdempotentFirstWins(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "requests")
	b := r.Counter("reqs_total", "ignored second help")
	if a != b {
		t.Fatal("same name did not return the same counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("shared counter value = %d, want 2", b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind re-registration did not panic")
		}
	}()
	r.Gauge("reqs_total", "")
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.1, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	want := []uint64{2, 1, 1} // <=0.1: {0.05, 0.1}; <=1: {0.5}; +Inf: {2}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_sum 2.65",
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestLabeledSeriesShareOneHeader(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{endpoint="run"}`, "requests").Add(1)
	r.Counter(`req_total{endpoint="sweep"}`, "requests").Add(2)
	r.Gauge("depth", "queue depth").Set(3)
	r.GaugeFunc("rate", "hit rate", func() float64 { return 0.5 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE req_total counter"); n != 1 {
		t.Fatalf("want exactly one req_total header, got %d:\n%s", n, out)
	}
	for _, line := range []string{
		`req_total{endpoint="run"} 1`,
		`req_total{endpoint="sweep"} 2`,
		"depth 3",
		"rate 0.5",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
	// Stable output across scrapes.
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	if sb2.String() != out {
		t.Fatal("exposition not stable across scrapes")
	}
}

func TestConcurrentRecording(t *testing.T) {
	// -race gate: counters, gauges, and histograms must tolerate
	// concurrent writers and a concurrent scraper.
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", RatioBuckets())
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%21) * 0.05)
			}
		}(w)
	}
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.Reset()
		r.WritePrometheus(&sb)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

func TestTracerRingAndJSON(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Begin("sweep", 0, Attr{Key: "specs", Value: "6"})
	kids := make([]SpanID, 3)
	for i := range kids {
		kids[i] = tr.Begin("shard", root)
	}
	for _, id := range kids {
		tr.End(id)
	}
	tr.Annotate(kids[0], Attr{Key: "worker", Value: "http://w1"})
	tr.End(root)

	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(spans))
	}
	for _, sp := range spans[1:] {
		if sp.Parent != root || sp.Name != "shard" {
			t.Fatalf("child span %+v not linked to root %d", sp, root)
		}
		if sp.EndUnix == 0 || sp.EndUnix < sp.StartUnix {
			t.Fatalf("span %d not properly ended: %+v", sp.ID, sp)
		}
	}
	// Overflow: two more spans evict the two oldest; ending an evicted
	// span is a no-op, not a corruption.
	a := tr.Begin("late", 0) // id 5, evicts root (id 1)
	tr.Begin("late", 0)      // id 6, evicts the first shard (id 2)
	tr.End(root)             // evicted: silent no-op
	tr.End(a)
	spans = tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("post-overflow snapshot len = %d, want 4", len(spans))
	}
	if spans[0].ID != 3 || spans[3].ID != 6 {
		t.Fatalf("ring order wrong: ids %d..%d, want 3..6", spans[0].ID, spans[3].ID)
	}

	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{`"spans"`, `"name":"shard"`, `"name":"late"`} {
		if !strings.Contains(out, frag) {
			t.Fatalf("JSON export missing %s:\n%s", frag, out)
		}
	}

	var nilT *Tracer
	if id := nilT.Begin("x", 0); id != 0 {
		t.Fatal("nil tracer handed out a span id")
	}
	nilT.End(1)
	if s := nilT.Snapshot(); s != nil {
		t.Fatal("nil tracer snapshot non-nil")
	}
}

// TestTracerRingMatchesModel is the span ring's bounded-structure
// property: zero-seeded random Begin/End/Annotate sequences at
// capacities 1, 3 and 64, on ids that are live, evicted, never issued
// or 0, hold the tracer after every step to a reference ring that keeps
// the newest capacity spans. Snapshot returns the model's spans oldest
// first, with matching ids, parents, names, ended flags and attrs, and
// an End or Annotate on an id the ring does not hold leaves the
// snapshot unchanged, timestamps included.
func TestTracerRingMatchesModel(t *testing.T) {
	type modelSpan struct {
		id, parent SpanID
		name       string
		ended      bool
		attrs      []Attr
	}
	rng := rand.New(rand.NewSource(0))
	for _, capacity := range []int{1, 3, 64} {
		tr := NewTracer(capacity)
		var ring []modelSpan // retained spans, oldest first
		var issued SpanID
		var kinds [4]int // ops on live, evicted, never-issued and 0 ids
		// pick draws an id and the kind of id it is; live ids come with
		// their index in ring.
		pick := func() (id SpanID, kind, live int) {
			switch k := rng.Intn(8); {
			case k < 4 && len(ring) > 0:
				i := rng.Intn(len(ring))
				return ring[i].id, 0, i
			case k < 6 && issued > SpanID(len(ring)):
				return 1 + SpanID(rng.Int63n(int64(issued)-int64(len(ring)))), 1, -1
			case k < 7:
				return issued + 1 + SpanID(rng.Intn(3*capacity)), 2, -1
			}
			return 0, 3, -1
		}
		for step := 0; step < 5000; step++ {
			before := tr.Snapshot()
			unheld := false // an End or Annotate on an id the ring does not hold
			switch rng.Intn(3) {
			case 0:
				parent, _, _ := pick()
				name := "op-" + strconv.Itoa(rng.Intn(4))
				var attrs []Attr
				if rng.Intn(2) == 0 {
					attrs = []Attr{{Key: "step", Value: strconv.Itoa(step)}}
				}
				id := tr.Begin(name, parent, attrs...)
				if issued++; id != issued {
					t.Fatalf("cap %d step %d: Begin returned id %d, want %d", capacity, step, id, issued)
				}
				ring = append(ring, modelSpan{id: id, parent: parent, name: name, attrs: append([]Attr(nil), attrs...)})
				if len(ring) > capacity {
					ring = ring[1:]
				}
			case 1:
				id, kind, i := pick()
				tr.End(id)
				kinds[kind]++
				if unheld = i < 0; !unheld {
					ring[i].ended = true
				}
			case 2:
				id, kind, i := pick()
				attrs := make([]Attr, rng.Intn(3))
				for j := range attrs {
					attrs[j] = Attr{Key: fmt.Sprintf("a%d", j), Value: strconv.Itoa(step)}
				}
				tr.Annotate(id, attrs...)
				kinds[kind]++
				if unheld = i < 0; !unheld {
					ring[i].attrs = append(ring[i].attrs, attrs...)
				}
			}
			got := tr.Snapshot()
			if unheld && !reflect.DeepEqual(got, before) {
				t.Fatalf("cap %d step %d: an operation on an id the ring does not hold changed it", capacity, step)
			}
			if len(got) > capacity || len(got) != len(ring) {
				t.Fatalf("cap %d step %d: %d spans retained, model holds %d", capacity, step, len(got), len(ring))
			}
			for i, sp := range got {
				m := ring[i]
				if sp.ID != m.id || sp.Parent != m.parent || sp.Name != m.name || (sp.EndUnix != 0) != m.ended ||
					len(sp.Attrs) != len(m.attrs) || (len(m.attrs) > 0 && !reflect.DeepEqual(sp.Attrs, m.attrs)) {
					t.Fatalf("cap %d step %d: span %d is %+v, model holds %+v", capacity, step, i, sp, m)
				}
			}
		}
		for kind, n := range kinds {
			if n == 0 {
				t.Errorf("cap %d: no operation on a %s id", capacity, [...]string{"live", "evicted", "never-issued", "zero"}[kind])
			}
		}
	}
}
