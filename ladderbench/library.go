package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/consensus"
	"repro/consensus/scenario"
	"repro/internal/model"
)

// newLibrary returns a library whose model and scenario registries are
// new but hand every spec to the built-in ones. New registries mean new
// valency engines (the process-wide engine pool is keyed by model
// registry, holds 64 engines and never evicts one) and new
// scenario-resolution cache keys, so nothing an earlier run, rung or
// warm-up filled is read again. With tr non-nil every registry call is a
// span of the given rung.
func newLibrary(tr *tracer, rung int) *consensus.Library {
	models := consensus.NewModelRegistry()
	for _, name := range consensus.Models.Names() {
		mustRegister(models.Register(consensus.ModelFactory{
			Name: name,
			New: func(arg string) (*model.Model, error) {
				defer tr.end(tr.begin(rung, "model.New", 0))
				return consensus.Models.New(name + ":" + arg)
			},
		}))
	}
	scenarios := consensus.NewScenarioRegistry()
	for _, name := range consensus.Scenarios.Names() {
		mustRegister(scenarios.Register(consensus.ScenarioFactory{
			Name: name,
			New: func(arg string, env consensus.ScenarioEnv) (*scenario.Schedule, error) {
				defer tr.end(tr.begin(rung, "scenario.New", 0))
				return consensus.Scenarios.New(name+":"+arg, env)
			},
		}))
	}
	return &consensus.Library{Models: models, Scenarios: scenarios}
}

// mustRegister panics on a registration error, which only a name
// registered twice in one new registry could cause.
func mustRegister(err error) {
	if err != nil {
		panic(err)
	}
}

// span is one timed call of the traced run. Registry calls have no
// parent: they nest, by time, in a consensus.NewSession span of the same
// rung.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Rung   int    `json:"rung"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil tracer records nothing.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(rung int, name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Rung: rung, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes the span begin returned id for.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// sum returns the total nanoseconds and the count of a rung's spans with
// the given name.
func (t *tracer) sum(rung int, name string) (ns int64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Rung == rung && s.Name == name {
			ns += s.End - s.Start
			n++
		}
	}
	return ns, n
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
