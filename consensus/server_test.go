package consensus

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/consensus/scenario"
	"repro/internal/graph"
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
	slow := httptest.NewServer(NewServer(ServerTimeout(time.Nanosecond), ServerCacheSize(0)))
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
