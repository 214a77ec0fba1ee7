package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The acceptance path: the served handler answers a solvability query and
// a sweep query end-to-end.
func TestReprodSolvabilityAndSweepEndToEnd(t *testing.T) {
	ts := httptest.NewServer(newServer(time.Minute))
	defer ts.Close()

	// Solvability of the two-agent model: rooted, 1/3 bound via Theorem 1.
	resp, err := http.Get(ts.URL + "/api/v1/solvability?model=twoagent")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solvability status %d", resp.StatusCode)
	}
	var solv struct {
		N         int     `json:"n"`
		Rooted    bool    `json:"rooted"`
		BoundRate float64 `json:"bound_rate"`
		Theorem   string  `json:"bound_theorem"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&solv); err != nil {
		t.Fatal(err)
	}
	if solv.N != 2 || !solv.Rooted {
		t.Errorf("solvability report: %+v", solv)
	}
	if diff := solv.BoundRate - 1.0/3.0; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("bound rate %v, want 1/3 (via %s)", solv.BoundRate, solv.Theorem)
	}

	// A sweep racing two algorithms against the greedy adversary.
	body := `{"specs": [
		{"model": "twoagent", "algorithm": "twothirds", "adversary": "greedy", "rounds": 4, "depth": 4},
		{"model": "twoagent", "algorithm": "midpoint", "adversary": "greedy", "rounds": 4, "depth": 4}
	]}`
	post := func() (results []struct {
		Cached  bool `json:"cached"`
		Summary *struct {
			Algorithm     string  `json:"algorithm"`
			GeometricRate float64 `json:"geometric_rate"`
		} `json:"summary"`
		Err string `json:"error"`
	}) {
		resp, err := http.Post(ts.URL+"/api/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d", resp.StatusCode)
		}
		var payload struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(payload.Results, &results); err != nil {
			t.Fatal(err)
		}
		return results
	}
	sweepCacheHits := func() uint64 {
		resp, err := http.Get(ts.URL + "/api/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			SweepCache struct {
				Hits uint64 `json:"hits"`
			} `json:"sweep_cache"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.SweepCache.Hits
	}

	results := post()
	if len(results) != 2 {
		t.Fatalf("got %d sweep results, want 2", len(results))
	}
	for i, r := range results {
		if r.Err != "" {
			t.Fatalf("sweep entry %d failed: %s", i, r.Err)
		}
		if r.Summary == nil {
			t.Fatalf("sweep entry %d has no summary", i)
		}
		if r.Cached {
			t.Errorf("first sweep entry %d came back cached", i)
		}
	}
	// Two-thirds decays at the certified 1/3 optimum; midpoint is held at
	// 1/2 — the Theorem 1 separation, served over HTTP.
	if got := results[0].Summary.GeometricRate; got < 0.32 || got > 0.34 {
		t.Errorf("two-thirds geometric rate %v, want ~1/3", got)
	}
	if got := results[1].Summary.GeometricRate; got < 0.49 || got > 0.51 {
		t.Errorf("midpoint geometric rate %v, want ~1/2", got)
	}

	// The identical query is served by the server's sweep cache: every
	// entry comes back cached, one hit per spec.
	before := sweepCacheHits()
	for i, r := range post() {
		if !r.Cached {
			t.Errorf("repeated sweep entry %d not cached", i)
		}
	}
	if hits := sweepCacheHits() - before; hits != 2 {
		t.Errorf("repeated sweep added %d sweep-cache hits, want 2 (one per spec)", hits)
	}
}

func TestReprodRegistryAndErrors(t *testing.T) {
	ts := httptest.NewServer(newServer(time.Minute))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg struct {
		Algorithms  []struct{ Name string } `json:"algorithms"`
		Models      []struct{ Name string } `json:"models"`
		Adversaries []struct{ Name string } `json:"adversaries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Algorithms) < 9 || len(reg.Models) < 8 || len(reg.Adversaries) < 6 {
		t.Errorf("registry too small: %d algorithms, %d models, %d adversaries",
			len(reg.Algorithms), len(reg.Models), len(reg.Adversaries))
	}

	bad, err := http.Get(ts.URL + "/api/v1/solvability?model=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus model status %d, want 400", bad.StatusCode)
	}
}

func TestReprodFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-worker", "-coordinator"},
		{"-batch-parallelism", "bogus"},
		{"-backend", "agents"}, // the execution path is chosen by capability
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}
