package consensus

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"
	"unicode"

	"repro/consensus/scenario"
)

// maxFuzzSpecLen caps each fuzzed spec string.
const maxFuzzSpecLen = 256

// FuzzSpecResolve feeds model, algorithm, adversary and scenario spec
// strings through NewSession. Resolution must never panic, and every
// spec it accepts must have one content address: two fresh libraries
// must give the same SpecFingerprint.
func FuzzSpecResolve(f *testing.F) {
	env := ScenarioEnv{Models: Models, Scenarios: Scenarios}
	sch, err := Scenarios.New("eventuallyrooted:4,2", env)
	if err != nil {
		f.Fatal(err)
	}
	trace := "trace:" + EncodeTraceString(sch)
	for _, info := range Models.Describe() {
		f.Add(info.Usage, "", "", "")
	}
	for _, info := range Algorithms.Describe() {
		f.Add("deaf:4", info.Usage, "", "")
	}
	for _, info := range Adversaries.Describe() {
		f.Add("psi:4", "", info.Usage, "")
	}
	for _, info := range Scenarios.Describe() {
		f.Add("", "", "", info.Usage)
	}
	for _, seed := range [][4]string{
		{"deaf:4", "midpoint", "cycle", ""},
		{"twoagent", "twothirds", "greedy", ""},
		{"psi:5", "amortized", "blockgreedy", ""},
		{"", "mean", "", "concat:frommodel:psi:4;1;2+frommodel:psi:4;2;3"},
		{"", "midpoint", "", "interleave:[concat:frommodel:psi:4;1;2+frommodel:psi:4;2;3]+eventuallyrooted:4,3"},
		{"", "midpoint", "", "concat:[repeat:2;frommodel:psi:4;1;2]+[interleave:partitionheal:4,2,3+churn:4,1,2,2,1]"},
		{"", "midpoint", "", "repeat:3;" + trace},
		{"", "midpoint", "", trace},
		{"", "midpoint", "", "trace:" + EncodeTraceString(sch)[:10]},
		{"deaf:1025", "", "", ""},
		{"psi:1025", "", "", ""},
		{"na:63,1", "", "", ""},
		{"asyncchain:1000,1", "", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	libA, libB := copyLibrary(f, nil), copyLibrary(f, nil)
	f.Fuzz(func(t *testing.T, modelSpec, algSpec, advSpec, scenSpec string) {
		spec := RunSpec{
			Model:     capSpec(modelSpec),
			Algorithm: capSpec(algSpec),
			Adversary: capSpec(advSpec),
			Scenario:  capSpec(scenSpec),
		}
		s, err := NewSession(spec, WithLibrary(libA))
		if err != nil {
			return
		}
		fpA, _ := s.Fingerprint()
		fpB, err := SpecFingerprint(spec, WithLibrary(libB))
		if err != nil {
			t.Fatalf("%+v resolves against one library but not another: %v", spec, err)
		}
		if fpA != fpB {
			t.Fatalf("%+v: fingerprint %q from one library, %q from another", spec, fpA, fpB)
		}
	})
}

// capSpec truncates a fuzzed spec string to maxFuzzSpecLen bytes.
func capSpec(s string) string {
	if len(s) > maxFuzzSpecLen {
		return s[:maxFuzzSpecLen]
	}
	return s
}

// Harness limits of FuzzServerSweep: the work one fuzzed body may ask
// for.
const (
	maxFuzzSweepSpecs  = 4
	maxFuzzSweepRounds = 64
	maxFuzzSweepDepth  = 1
	maxFuzzSpecNumber  = 16
)

// FuzzServerSweep posts fuzzed JSON bodies to the Server's
// /api/v1/sweep endpoint. The handler must never panic or answer 500,
// and every 200 must decode into one result per spec, each either an
// error or a summary of finite floats. Bodies past the harness limits
// (see fuzzSweepBounded) are skipped, and a one-second query timeout
// (a 504) cuts the slowest valency searches the limits still admit.
func FuzzServerSweep(f *testing.F) {
	overflow, err := json.Marshal(sweepRequest{Specs: overflowSpecs()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overflow)
	for _, m := range oversizedModels {
		body, err := json.Marshal(sweepRequest{Specs: []RunSpec{{Model: m, Rounds: 3}, {Model: "deaf:4", Rounds: 3}}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{"specs":[{"model":"deaf:4","algorithm":"midpoint","adversary":"cycle","rounds":8},` +
			`{"model":"deaf:4","algorithm":"amortized","adversary":"random","rounds":8,"seed":3},` +
			`{"scenario":"eventuallyrooted:5,2","algorithm":"mean","rounds":10},` +
			`{"model":"twoagent","algorithm":"twothirds","adversary":"greedy","rounds":3,"depth":1}]}`,
		`{"specs":[{"algorithm":"midpoint","adversary":"randomrooted:0.4","inputs":[0,-0,1,0.25],"rounds":15}],"workers":2}`,
		`{"specs":[{"algorithm":"midpoint","adversary":"randomrooted:1e-9","inputs":[0,1,2,3,4,5,6,7],"rounds":5}]}`,
		`{"specs":[{"model":"psi:5","algorithm":"selfweighted:0.25","adversary":"blockgreedy","rounds":12,"depth":1}]}`,
		`{"specs":[{"model":"deaf:4","algorithm":"nonsense"}]}`,
		`{"specs":[]}`,
		`{"specs":[{"model":"deaf:4","rounds":-1}]}`,
		`{"specs":[{"model":"deaf:4"`,
	} {
		f.Add([]byte(body))
	}
	srv := NewServer(ServerTimeout(time.Second))
	f.Fuzz(func(t *testing.T, body []byte) {
		// Decode as the server does (it also rejects unknown fields), so
		// every body the server would run is held to the limits.
		var req sweepRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && !fuzzSweepBounded(req) {
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/sweep", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusInternalServerError:
			t.Fatalf("500 for %q: %s", body, rec.Body.Bytes())
		case http.StatusOK:
		default:
			return
		}
		var resp sweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v: %s", err, rec.Body.Bytes())
		}
		if len(resp.Results) != len(req.Specs) {
			t.Fatalf("%d results for %d specs", len(resp.Results), len(req.Specs))
		}
		for i, r := range resp.Results {
			switch {
			case r.Err != "" && r.Summary != nil:
				t.Fatalf("result %d has both an error and a summary", i)
			case r.Err == "" && r.Summary == nil:
				t.Fatalf("result %d has neither an error nor a summary", i)
			case r.Summary != nil:
				if err := r.Summary.checkFinite(); err != nil {
					t.Fatalf("result %d: %v", i, err)
				}
			}
		}
	})
}

// fuzzSweepBounded reports whether a decoded sweep body stays inside the
// harness limits: at most maxFuzzSweepSpecs specs, each of at most
// maxFuzzSweepRounds rounds and maxFuzzSpecNumber inputs, valency depth
// maxFuzzSweepDepth for the valency-driven adversaries (an unset depth
// means DefaultDepth), and no number above maxFuzzSpecNumber in a model
// or scenario spec. A greedy round explores |model|^depth branches and
// the spec numbers set agent counts, family sizes and epoch counts:
// past these limits one body can cost minutes (a depth-2 greedy round
// on asyncchain:64,1 outlasts a 5 s query timeout by over two minutes)
// or hundreds of MiB. The oversized models are exempt: resolution rejects
// them before building anything.
func fuzzSweepBounded(req sweepRequest) bool {
	if len(req.Specs) > maxFuzzSweepSpecs {
		return false
	}
	for _, spec := range req.Specs {
		if spec.Rounds > maxFuzzSweepRounds || len(spec.Inputs) > maxFuzzSpecNumber {
			return false
		}
		depth := spec.Depth
		if depth == 0 {
			depth = DefaultDepth
		}
		if fac, _, err := Adversaries.lookup(spec.Adversary); err == nil && fac.NeedsEngine && depth > maxFuzzSweepDepth {
			return false
		}
		if slices.Contains(oversizedModels, spec.Model) {
			spec.Model = ""
		}
		for _, str := range []string{spec.Model, spec.Algorithm, spec.Adversary, spec.Scenario} {
			if len(str) > maxFuzzSpecLen {
				return false
			}
		}
		if maxNumber(spec.Model) > maxFuzzSpecNumber || maxNumber(spec.Scenario) > maxFuzzSpecNumber {
			return false
		}
	}
	return true
}

// maxNumber returns the largest decimal number written in s (saturating
// on overflow), 0 when it holds none.
func maxNumber(s string) int {
	largest := 0
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && unicode.IsDigit(rune(s[j])) {
			j++
		}
		if j == i {
			i++
			continue
		}
		v, err := strconv.Atoi(s[i:j])
		if err != nil {
			v = int(^uint(0) >> 1)
		}
		largest = max(largest, v)
		i = j
	}
	return largest
}

// Harness limits of FuzzServerScenario beyond FuzzServerSweep's: the
// largest uploaded trace, and the agent count and horizon of the
// schedule it decodes to.
const (
	maxFuzzTraceBytes   = 4 << 10
	maxFuzzTraceAgents  = 16
	maxFuzzTraceHorizon = 64
)

// FuzzServerScenario posts fuzzed JSON bodies to the Server's
// /api/v1/scenario endpoint. The handler must never panic or answer
// 500, and every 200 must decode into a report whose trace decodes to a
// schedule with the reported fingerprint, whose rooted window lies in
// [0, MaxRootedWindow], and, for Run requests, whose summary is finite
// with one diameter per certified round plus the initial one. Bodies past
// the harness limits (see fuzzScenarioBounded) are skipped, and a
// one-second query timeout (a 504) cuts the slowest requests the limits
// still admit.
func FuzzServerScenario(f *testing.F) {
	sch, err := Scenarios.New("eventuallyrooted:4,2", ScenarioEnv{Models: Models, Scenarios: Scenarios})
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []ScenarioRequest{
		{Scenario: "eventuallyrooted:16,16"},
		{Scenario: "partitionheal:6,2,4"},
		{Scenario: "churn:8,1,5,4,3"},
		{Scenario: "concat:frommodel:psi:4;1;2+frommodel:psi:4;2;3"},
		{Scenario: "interleave:[concat:frommodel:psi:4;1;2+frommodel:psi:4;2;3]+eventuallyrooted:4,3"},
		{Scenario: "concat:[repeat:2;frommodel:psi:4;1;2]+[interleave:partitionheal:4,2,3+churn:4,1,2,2,1]"},
		{Trace: sch.Encode()},
		{Scenario: "eventuallyrooted:4,2", Trace: sch.Encode()},
		{Scenario: "frommodel:psi:4;1;6", Model: "psi:4", Rounds: 8},
		{Scenario: "churn:8,1,5,4,3", Run: true, Algorithm: "midpoint", Rounds: 12},
		{Trace: sch.Encode(), Run: true, Algorithm: "amortized", Inputs: []float64{0, 1, 0.5, 0.25}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"scenario":"churn:8,1,5`))
	srv := NewServer(ServerTimeout(time.Second))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ScenarioRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && !fuzzScenarioBounded(req) {
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/scenario", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusInternalServerError:
			t.Fatalf("500 for %q: %s", body, rec.Body.Bytes())
		case http.StatusOK:
		default:
			return
		}
		var rep ScenarioReport
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatalf("200 body does not decode: %v: %s", err, rec.Body.Bytes())
		}
		sch, err := scenario.Decode(rep.Trace)
		if err != nil {
			t.Fatalf("reported trace does not decode: %v", err)
		}
		if fp := sch.Fingerprint(); fp != rep.Fingerprint {
			t.Fatalf("reported fingerprint %s, trace fingerprint %s", rep.Fingerprint, fp)
		}
		if w := rep.Certificate.RootedWindow; w < 0 || w > scenario.MaxRootedWindow {
			t.Fatalf("rooted window %d outside [0, %d]", w, scenario.MaxRootedWindow)
		}
		if req.Run {
			if rep.Summary == nil {
				t.Fatal("run request answered without a summary")
			}
			if err := rep.Summary.checkFinite(rep.Diameters...); err != nil {
				t.Fatal(err)
			}
			if len(rep.Diameters) != rep.Certificate.Rounds+1 {
				t.Fatalf("%d diameters for %d certified rounds", len(rep.Diameters), rep.Certificate.Rounds)
			}
		}
	})
}

// fuzzScenarioBounded reports whether a decoded scenario body stays
// inside the harness limits: FuzzServerSweep's limits on spec strings,
// spec numbers, inputs and rounds, and an uploaded trace of at most
// maxFuzzTraceBytes whose schedule, if it decodes, has at most
// maxFuzzTraceAgents agents and a horizon of at most maxFuzzTraceHorizon.
func fuzzScenarioBounded(req ScenarioRequest) bool {
	for _, str := range []string{req.Scenario, req.Model, req.Algorithm} {
		if len(str) > maxFuzzSpecLen {
			return false
		}
	}
	if req.Rounds > maxFuzzSweepRounds || len(req.Inputs) > maxFuzzSpecNumber {
		return false
	}
	model := req.Model
	if slices.Contains(oversizedModels, model) {
		model = ""
	}
	if maxNumber(model) > maxFuzzSpecNumber || maxNumber(req.Scenario) > maxFuzzSpecNumber {
		return false
	}
	if len(req.Trace) > maxFuzzTraceBytes {
		return false
	}
	if req.Trace != nil {
		if sch, err := scenario.Decode(req.Trace); err == nil && (sch.N() > maxFuzzTraceAgents || sch.Horizon() > maxFuzzTraceHorizon) {
			return false
		}
	}
	return true
}
