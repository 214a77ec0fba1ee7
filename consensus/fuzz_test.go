package consensus

import (
	"testing"
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
