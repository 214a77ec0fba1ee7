package consensus

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/consensus/scenario"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/httpjson"
	"repro/internal/obs"
)

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServerRunRandomRootedTinyP: a run whose randomrooted edge
// probability no random sample is rooted at still answers 200.
func TestServerRunRandomRootedTinyP(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerTimeout(10 * time.Second)))
	defer ts.Close()
	resp, body := postJSON(t, ts, "/api/v1/run",
		`{"algorithm": "midpoint", "adversary": "randomrooted:1e-9", "inputs": [0, 1, 2, 3, 4, 5, 6, 7], "rounds": 5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}
}

func TestServerRunValencyDecisionAsync(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerTimeout(time.Minute)))
	defer ts.Close()

	resp, body := postJSON(t, ts, "/api/v1/run",
		`{"model": "deaf:4", "algorithm": "midpoint", "adversary": "cycle", "rounds": 8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}
	var runOut struct {
		Summary   RunSummary `json:"summary"`
		Diameters []float64  `json:"diameters"`
	}
	if err := json.Unmarshal(body, &runOut); err != nil {
		t.Fatal(err)
	}
	if len(runOut.Diameters) != 9 || runOut.Summary.FinalDiameter >= 1 {
		t.Errorf("run response: %+v", runOut)
	}

	resp, body = postJSON(t, ts, "/api/v1/valency",
		`{"model": "twoagent", "algorithm": "twothirds", "inputs": [0, 1], "depth": 4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valency status %d: %s", resp.StatusCode, body)
	}
	var val ValencyReport
	if err := json.Unmarshal(body, &val); err != nil {
		t.Fatal(err)
	}
	// δ(C_0) = 1 for the two-agent H model: inner and outer must bracket it.
	if val.DeltaLower < 0.99 || val.Outer == nil || val.DeltaUpper < val.DeltaLower {
		t.Errorf("valency report: %+v", val)
	}

	resp, body = postJSON(t, ts, "/api/v1/decision",
		`{"model": "twoagent", "algorithm": "twothirds", "adversary": "fixed:1",
		  "inputs": [0, 1], "contraction": 0.333333333333333, "eps": [0.01], "theorem": "T8"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decision status %d: %s", resp.StatusCode, body)
	}
	var dec struct {
		Points []DecisionPoint `json:"points"`
	}
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatal(err)
	}
	if len(dec.Points) != 1 || !dec.Points[0].OK || float64(dec.Points[0].Rounds) < dec.Points[0].LowerBound {
		t.Errorf("decision points: %+v", dec.Points)
	}

	resp, body = postJSON(t, ts, "/api/v1/async",
		`{"process": "minrelay", "n": 6, "f": 3, "worst_case": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("async status %d: %s", resp.StatusCode, body)
	}
	var as AsyncResult
	if err := json.Unmarshal(body, &as); err != nil {
		t.Fatal(err)
	}
	if as.MinRelayAgreed == nil || !*as.MinRelayAgreed {
		t.Errorf("Theorem 7 verdict missing or false: %+v", as)
	}
}

func TestServerExperimentEndpoints(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerTimeout(time.Minute)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Experiments) == 0 {
		t.Fatal("no experiments listed")
	}

	// Run the cheapest listed experiment end-to-end.
	id := listing.Experiments[0].ID
	for _, e := range listing.Experiments {
		if e.ID == "T1/twoagent" {
			id = e.ID
		}
	}
	r2, body := postJSON(t, ts, "/api/v1/experiment", `{"id": `+jsonString(id)+`}`)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("experiment status %d: %s", r2.StatusCode, body)
	}
	var res struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
		Text string     `json:"text"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != id || len(res.Rows) == 0 || !strings.Contains(res.Text, res.ID) {
		t.Errorf("experiment response: id=%q rows=%d", res.ID, len(res.Rows))
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func TestServerErrorsAndTimeout(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerTimeout(time.Minute)))
	defer ts.Close()

	// Malformed body.
	resp, _ := postJSON(t, ts, "/api/v1/run", `{"model": 17}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", resp.StatusCode)
	}
	// Unknown field (strict decoding).
	resp, _ = postJSON(t, ts, "/api/v1/run", `{"model": "deaf:3", "wat": true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d, want 400", resp.StatusCode)
	}
	// Unknown spec.
	resp, _ = postJSON(t, ts, "/api/v1/run", `{"model": "bogus"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model status %d, want 400", resp.StatusCode)
	}
	// Out-of-range async parameters must 400, not panic the handler.
	resp, _ = postJSON(t, ts, "/api/v1/async", `{"n": 3, "f": 1, "delay_floor": 2}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad delay floor status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/api/v1/async", `{"n": 63, "f": 1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized async n status %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(ts.URL + "/api/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run status %d, want 405", getResp.StatusCode)
	}

	// A server with an expired per-query budget answers 504.
	slow := httptest.NewServer(NewServer(ServerTimeout(time.Nanosecond)))
	defer slow.Close()
	r3, err := http.Get(slow.URL + "/api/v1/solvability?model=deaf:4")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("expired budget status %d, want 504", r3.StatusCode)
	}
}

// TestServerRejectsOversizedModels sends every oversized model through
// the run and sweep endpoints: each gets its own error, the sweep still
// serves the good spec, and the handler never panics.
func TestServerRejectsOversizedModels(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerTimeout(time.Minute)))
	defer ts.Close()
	specs := make([]RunSpec, 0, len(oversizedModels)+1)
	for _, m := range oversizedModels {
		resp, _ := postJSON(t, ts, "/api/v1/run", `{"model": "`+m+`"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("run %s status %d, want 400", m, resp.StatusCode)
		}
		specs = append(specs, RunSpec{Model: m, Rounds: 3})
	}
	specs = append(specs, RunSpec{Model: "deaf:4", Rounds: 3})
	body, err := json.Marshal(map[string]any{"specs": specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, ts, "/api/v1/sweep", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, out)
	}
	var got struct {
		Results []SweepResult `json:"results"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(specs) {
		t.Fatalf("%d results, want %d", len(got.Results), len(specs))
	}
	for i, m := range oversizedModels {
		if got.Results[i].Err == "" {
			t.Errorf("sweep accepted model %s", m)
		}
	}
	if last := got.Results[len(specs)-1]; last.Err != "" || last.Summary == nil {
		t.Errorf("good spec not served: %+v", last)
	}
}

// TestServerOverflowIsPerSpecError sends a run that overflows the
// float range through the sweep, run and scenario endpoints: the sweep
// answers 200 with a per-spec error and serves the neighbour, a repeat
// of the spec alone still does (nothing non-finite was cached), and the
// run and scenario-run endpoints answer 400.
func TestServerOverflowIsPerSpecError(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerTimeout(time.Minute)))
	defer ts.Close()
	specs := overflowSpecs()
	for _, batch := range [][]RunSpec{specs, specs[:1]} {
		body, err := json.Marshal(map[string]any{"specs": batch})
		if err != nil {
			t.Fatal(err)
		}
		resp, out := postJSON(t, ts, "/api/v1/sweep", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep of %d specs: status %d: %s", len(batch), resp.StatusCode, out)
		}
		var got struct {
			Results []SweepResult `json:"results"`
		}
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(batch) {
			t.Fatalf("%d results, want %d", len(got.Results), len(batch))
		}
		if r := got.Results[0]; r.Err == "" || r.Summary != nil {
			t.Errorf("overflowing run not reported as an error: %+v", r)
		}
		if len(batch) > 1 {
			if r := got.Results[1]; r.Err != "" || r.Summary == nil {
				t.Errorf("neighbour not served: %+v", r)
			}
		}
	}
	body, err := json.Marshal(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp, out := postJSON(t, ts, "/api/v1/run", string(body)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("run status %d, want 400: %s", resp.StatusCode, out)
	}
	scen := `{"scenario": "eventuallyrooted:3,2", "run": true, "rounds": 6, "inputs": [1.7e308, -1.7e308, 0]}`
	if resp, out := postJSON(t, ts, "/api/v1/scenario", scen); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("scenario run status %d, want 400: %s", resp.StatusCode, out)
	}
}

// TestServersDoNotShareResults: each NewServer holds its own sweep
// cache, so a sweep one server has computed is computed again by a
// second server in the same process.
func TestServersDoNotShareResults(t *testing.T) {
	body := `{"specs": [{"model": "deaf:5", "algorithm": "mean", "adversary": "cycle", "rounds": 9}]}`
	for i, srv := range []*Server{NewServer(), NewServer()} {
		ts := httptest.NewServer(srv)
		resp, out := postJSON(t, ts, "/api/v1/sweep", body)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: sweep status %d: %s", i, resp.StatusCode, out)
		}
		var got struct {
			Results []SweepResult `json:"results"`
		}
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		if r := got.Results[0]; r.Err != "" || r.Cached {
			t.Errorf("server %d: %+v, want a computed summary", i, r)
		}
		if c := srv.SweepCacheCounters(); c.Hits != 0 || c.Misses != 1 || c.Entries != 1 {
			t.Errorf("server %d: sweep cache %+v, want one miss and one entry", i, c)
		}
	}
}

// TestServedRunMatchesTrace: every /api/v1/run answer, status and body
// byte for byte, is the one built from Summarize(Session.Run) and
// Result.Diameters — on the dense and the Agent path, under oblivious,
// valency-driven and scenario sources, at zero rounds, and for a run
// that overflows the float range (a 400).
func TestServedRunMatchesTrace(t *testing.T) {
	srv := NewServer(ServerTimeout(time.Minute))
	overflows := 0
	for _, spec := range []RunSpec{
		{Model: "deaf:8", Algorithm: "midpoint", Adversary: "cycle", Rounds: 30},
		{Model: "deaf:5", Algorithm: "mean", Adversary: "random", Seed: 7, Rounds: 20},
		{Model: "psi:4", Algorithm: "amortized", Adversary: "cycle", Rounds: 25},
		{Model: "deaf:4", Algorithm: "selfweighted:0.25", Adversary: "fixed:2", Rounds: 0},
		{Model: "twoagent", Algorithm: "twothirds", Adversary: "greedy", Rounds: 12},
		{Model: "psi:4", Algorithm: "midpoint", Adversary: "blockgreedy", Depth: 2, Rounds: 8},
		{Model: "deaf:4", Algorithm: "rb-midpoint", Adversary: "cycle", Rounds: 10},
		{Scenario: "churn:8,3,2,4,2", Algorithm: "midpoint", Rounds: 40},
		{Model: "deaf:3", Algorithm: "midpoint", Adversary: "cycle", Inputs: []float64{-1.7e308, 1.7e308, 0}, Rounds: 3},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := httptest.NewRecorder()
		srv.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/api/v1/run", bytes.NewReader(body)))

		want := httptest.NewRecorder()
		session, err := NewSession(spec)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		res, err := session.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		resp := runResponse{Spec: spec, Summary: Summarize(res), Diameters: res.Diameters()}
		if err := resp.Summary.checkFinite(resp.Diameters...); err != nil {
			httpjson.WriteError(want, http.StatusBadRequest, err)
			overflows++
		} else {
			httpjson.Write(want, http.StatusOK, resp)
		}
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: served %d %s, the trace builds %d %s", body, got.Code, got.Body, want.Code, want.Body)
		}
	}
	if overflows != 1 {
		t.Errorf("%d runs overflowed, want the one built to", overflows)
	}
}

// TestServedRunKeepsNoTrace: a served run keeps its diameter series and
// no trace, so going from 40 to 4000 rounds grows its allocation by
// about that series and its JSON only — within 64 bytes a round, where
// a trace of deaf:64's outputs costs 512.
func TestServedRunKeepsNoTrace(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	srv := NewServer()
	alloc := func(rounds int) uint64 {
		body := fmt.Sprintf(`{"model": "deaf:64", "algorithm": "midpoint", "adversary": "cycle", "rounds": %d}`, rounds)
		serve := func() uint64 {
			var before, after runtime.MemStats
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/api/v1/run", strings.NewReader(body))
			runtime.ReadMemStats(&before)
			srv.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code != http.StatusOK {
				t.Fatalf("run status %d: %s", rec.Code, rec.Body)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		serve() // warm-up
		least := serve()
		for range 2 {
			least = min(least, serve())
		}
		return least
	}
	const short, long = 40, 4000
	a, b := alloc(short), alloc(long)
	if perRound := float64(b-a) / (long - short); b < a || perRound > 64 {
		t.Fatalf("a served run allocates %d bytes at %d rounds and %d at %d: %.0f bytes a round, want at most 64",
			a, short, b, long, perRound)
	}
}

// TestServerStatusPlanCacheIsKernelSeries: with the kernel bound to the
// process registry, a sweep that steps a tile moves the kernel's
// plan-cache series, and /api/v1/status reports exactly the
// repro_kernel_plan_cache_*_total values /metrics serves.
func TestServerStatusPlanCacheIsKernelSeries(t *testing.T) {
	core.SetObsRegistry(obs.Default())
	ts := httptest.NewServer(NewServer())
	defer ts.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return out
	}
	status := func() PlanCacheCounters {
		var rep StatusReport
		if err := json.Unmarshal(get("/api/v1/status"), &rep); err != nil {
			t.Fatal(err)
		}
		return rep.PlanCache
	}
	before := status()
	resp, out := postJSON(t, ts, "/api/v1/sweep", `{"workers": 1, "specs": [
		{"model": "deaf:6", "algorithm": "midpoint", "adversary": "random", "seed": 1, "rounds": 50},
		{"model": "deaf:6", "algorithm": "midpoint", "adversary": "random", "seed": 2, "rounds": 50}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, out)
	}
	after := status()
	if after.Hits == before.Hits {
		t.Fatalf("the sweep's tile moved no plan-cache hits: %+v", after)
	}
	series := make(map[string]string)
	for _, line := range strings.Split(string(get("/metrics")), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "repro_kernel_plan_cache_") {
			series[name] = value
		}
	}
	for name, want := range map[string]uint64{
		"repro_kernel_plan_cache_hits_total":      after.Hits,
		"repro_kernel_plan_cache_misses_total":    after.Misses,
		"repro_kernel_plan_cache_evictions_total": after.Evictions,
		"repro_kernel_plan_cache_deferrals_total": after.Deferrals,
	} {
		if got := series[name]; got != strconv.FormatUint(want, 10) {
			t.Errorf("/metrics %s = %q, /api/v1/status says %d", name, got, want)
		}
	}
}

// TestAnswerUnencodableIs500: a query result JSON cannot carry is
// answered 500 with an error body, never a truncated 200.
func TestAnswerUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	NewServer().answer(rec, httptest.NewRequest(http.MethodGet, "/", nil), func(context.Context) (any, error) {
		return math.Inf(1), nil
	})
	var body httpjson.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
		t.Errorf("status %d, body %q, want 500 with an error body", rec.Code, rec.Body)
	}
}

func TestServerHealthz(t *testing.T) {
	ts := httptest.NewServer(NewServer())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestServerScenarioEndpoint(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerTimeout(time.Minute)))
	defer ts.Close()

	// Inspect + certify + run a generated scenario by spec.
	resp, body := postJSON(t, ts, "/api/v1/scenario",
		`{"scenario": "partitionheal:6,2,4", "rounds": 12, "run": true,
		  "algorithm": "midpoint", "inputs": [0, 0, 0, 1, 1, 1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario status %d: %s", resp.StatusCode, body)
	}
	var rep ScenarioReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.N != 6 || rep.Fingerprint == "" || len(rep.Trace) == 0 {
		t.Fatalf("scenario report incomplete: %+v", rep)
	}
	if rep.Certificate.Rooted || rep.Certificate.FirstUnrooted != 1 {
		t.Errorf("partition rounds not flagged: %+v", rep.Certificate)
	}
	if rep.Summary == nil || rep.Summary.FinalDiameter >= 1 {
		t.Errorf("healed run did not contract: %+v", rep.Summary)
	}

	// Upload the returned trace; the schedule identity must survive.
	upload, err := json.Marshal(ScenarioRequest{Trace: rep.Trace})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts, "/api/v1/scenario", string(upload))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace upload status %d: %s", resp.StatusCode, body)
	}
	var rep2 ScenarioReport
	if err := json.Unmarshal(body, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Fingerprint != rep.Fingerprint {
		t.Error("uploaded trace changed identity")
	}

	// Bad requests are 400s.
	resp, _ = postJSON(t, ts, "/api/v1/scenario", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/api/v1/scenario", `{"scenario": "nosuch:1"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown scenario status %d, want 400", resp.StatusCode)
	}
	// Hostile generator arguments must come back as 400s, not panics.
	for _, spec := range []string{
		"partitionheal:2000,2,4",
		"churn:4,1,3074457345618258603,3,1",
		"repeat:4611686018427387904;eventuallyrooted:4,2",
	} {
		resp, _ = postJSON(t, ts, "/api/v1/scenario", `{"scenario": "`+spec+`"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("hostile spec %q status %d, want 400", spec, resp.StatusCode)
		}
	}
}

// TestServerScenarioCertifyHorizonCapped: a certify-only upload whose
// default horizon exceeds the served-run cap must be rejected before
// any per-round work, not ground through.
func TestServerScenarioCertifyHorizonCapped(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerTimeout(time.Minute)))
	defer ts.Close()

	long := make([]graph.Graph, MaxServedRounds+1)
	for i := range long {
		long[i] = graph.Complete(2)
	}
	sch, err := scenario.NewLasso(2, long, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ScenarioRequest{Trace: sch.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, ts, "/api/v1/scenario", string(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized certify horizon status %d, want 400: %s", resp.StatusCode, out)
	}
	// An explicit in-cap horizon over the same trace is fine.
	body, _ = json.Marshal(ScenarioRequest{Trace: sch.Encode(), Rounds: 16})
	resp, out = postJSON(t, ts, "/api/v1/scenario", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capped certify status %d: %s", resp.StatusCode, out)
	}
}
