package distributed

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/consensus"
)

// stubWorker answers the coordinator as a worker would over HTTP: 200
// to every health probe, and body to every shard.
type stubWorker struct{ body []byte }

func (s stubWorker) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	body := s.body
	if r.URL.Path == "/healthz" {
		body = []byte(`{"status":"ok"}`)
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    r,
	}, nil
}

// settleGoroutines waits up to a second for the goroutine count to fall
// back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines a second after the sweep, %d before it", runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzShardResponse feeds the coordinator's shard-response decode: a
// stub worker answers a 2-spec shard with the fuzzed body, on every
// attempt. Whatever the body, the sweep returns one result per spec,
// each with its own index and spec and exactly one of a summary and an
// error; the store holds a summary only under a spec's own fingerprint,
// and only the one the worker sent under that fingerprint; and the
// sweep leaves no goroutine behind.
func FuzzShardResponse(f *testing.F) {
	specs := []consensus.RunSpec{
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 8},
		{Model: "psi:5", Algorithm: "mean", Adversary: "cycle", Rounds: 6},
	}
	fps := make([]string, len(specs))
	for j, spec := range specs {
		fp, err := consensus.SpecFingerprint(spec)
		if err != nil || fp == "" {
			f.Fatalf("spec %d: fingerprint %q, error %v", j, fp, err)
		}
		fps[j] = fp
	}
	// Seeds: a real worker's answer, and damaged forms of it.
	req, err := json.Marshal(ShardRequest{Shard: "seed", Specs: specs})
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewWorker().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/shard", bytes.NewReader(req)))
	if rec.Code != http.StatusOK {
		f.Fatalf("seed shard: status %d: %s", rec.Code, rec.Body)
	}
	genuine := rec.Body.String()
	f.Add([]byte(genuine))
	f.Add([]byte(strings.Replace(genuine, fps[0], fps[1], 1)))
	f.Add([]byte(strings.Replace(genuine, `"cached":false`, `"cached":false,"error":"x"`, 1)))
	f.Add([]byte(`{"results":[{"error":"x"},{"fingerprint":"` + fps[1] + `","error":"y"}]}`))
	f.Add([]byte(`{"results":[{"error":"x","summary":{}},{"summary":{}}]}`))
	f.Add([]byte(`{"results":[{},{}]}`))
	f.Add([]byte(`{"results":[{"error":"x"}]}`))
	f.Add([]byte(`{"results":null}`))
	f.Add([]byte(`{"results":[{"error":"x"},{"error":"y"}]} trailing`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		base := runtime.NumGoroutine()
		c := NewCoordinator(CoordinatorClient(&http.Client{Transport: stubWorker{body}}),
			CoordinatorWorkers("http://stub.invalid"), CoordinatorHealthInterval(0),
			CoordinatorRetry(2, time.Microsecond))
		defer c.Close()
		resp, err := c.runSweep(context.Background(), SweepRequest{Specs: specs}, nil)
		if err != nil {
			t.Fatalf("sweep failed as a whole: %v", err)
		}
		if len(resp.Results) != len(specs) {
			t.Fatalf("%d results for %d specs", len(resp.Results), len(specs))
		}
		stored := 0
		for j, r := range resp.Results {
			if r.Index != j || !reflect.DeepEqual(r.Spec, specs[j]) {
				t.Errorf("result %d carries index %d and spec %+v", j, r.Index, r.Spec)
			}
			if (r.Summary == nil) == (r.Err == "") {
				t.Errorf("result %d carries neither or both of a summary and an error: %+v", j, r)
			}
			sum, ok := c.store.Lookup(fps[j])
			if !ok {
				continue
			}
			stored++
			if r.Fingerprint != fps[j] || r.Summary == nil || !reflect.DeepEqual(sum, *r.Summary) {
				t.Errorf("spec %d: the store holds a summary the worker did not send under its fingerprint", j)
			}
		}
		if n := c.store.Counters().Entries; n != stored {
			t.Errorf("the store holds %d entries, %d of them under the specs' fingerprints", n, stored)
		}
		settleGoroutines(t, base)
	})
}
