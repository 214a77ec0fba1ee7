package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/consensus"
	"repro/consensus/distributed"
)

// rateTol is how far a lower-bound run's geometric rate may fall below
// its model's proven bound before the run fails its check.
const rateTol = 1e-9

// maxReports bounds the failures a run describes on standard error.
const maxReports = 5

// checker verifies served results against expectations it computes
// through its own library, after the measured window, so that checking
// never warms a cache the program under test reads.
type checker struct {
	lib      *consensus.Library
	memo     map[string]expectation // by the spec's JSON
	reported int
}

// expectation is what one spec's served result must show.
type expectation struct {
	fingerprint string  // consensus.SpecFingerprint
	convex      bool    // a convex-combination algorithm, so validity must hold
	adversarial bool    // a lower-bound execution (greedy or blockgreedy)
	bound       float64 // the model's proven contraction-rate lower bound
}

func newChecker() *checker {
	return &checker{lib: newLibrary(nil, 0), memo: make(map[string]expectation)}
}

func (c *checker) expect(spec consensus.RunSpec) (expectation, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return expectation{}, err
	}
	if e, ok := c.memo[string(raw)]; ok {
		return e, nil
	}
	fp, err := consensus.SpecFingerprint(spec, consensus.WithLibrary(c.lib))
	if err != nil {
		return expectation{}, err
	}
	s, err := consensus.NewSession(spec, consensus.WithLibrary(c.lib))
	if err != nil {
		return expectation{}, err
	}
	e := expectation{fingerprint: fp, convex: s.Convex()}
	if spec.Adversary == "greedy" || spec.Adversary == "blockgreedy" {
		e.bound, _, _, e.adversarial = s.ContractionBound()
	}
	c.memo[string(raw)] = e
	return e, nil
}

// check verifies one served response: one result per spec in order, no
// per-spec error, the fingerprint consensus.SpecFingerprint gives, the
// requested round count, validity for convex algorithms, and on
// lower-bound executions a geometric rate of at least the model's proven
// bound.
func (c *checker) check(specs []consensus.RunSpec, results []consensus.SweepResult) error {
	if len(results) != len(specs) {
		return fmt.Errorf("%d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		e, err := c.expect(specs[i])
		switch {
		case err != nil:
			return fmt.Errorf("spec %d: %w", i, err)
		case r.Index != i:
			return fmt.Errorf("spec %d: result carries index %d", i, r.Index)
		case r.Err != "":
			return fmt.Errorf("spec %d: %s", i, r.Err)
		case r.Summary == nil:
			return fmt.Errorf("spec %d: no summary", i)
		case r.Fingerprint != e.fingerprint:
			return fmt.Errorf("spec %d: fingerprint %s, want %s", i, r.Fingerprint, e.fingerprint)
		case r.Summary.Rounds != specs[i].Rounds:
			return fmt.Errorf("spec %d: %d rounds, want %d", i, r.Summary.Rounds, specs[i].Rounds)
		case e.convex && !r.Summary.Validity:
			return fmt.Errorf("spec %d: a convex algorithm left the input hull", i)
		case e.adversarial && r.Summary.GeometricRate < e.bound-rateTol:
			return fmt.Errorf("spec %d: geometric rate %g below the proven bound %g", i, r.Summary.GeometricRate, e.bound)
		}
	}
	return nil
}

// failures checks every sample of a pass: a request fails on a transport
// or HTTP error, or when its response fails a check.
func (c *checker) failures(p *pass) []bool {
	failed := make([]bool, len(p.samples))
	for i, s := range p.samples {
		err := s.err
		if err == nil {
			var resp distributed.SweepResponse
			if err = json.Unmarshal(s.body, &resp); err == nil {
				err = c.check(p.reqs[i].specs, resp.Results)
			}
		}
		if err != nil {
			failed[i] = true
			c.report(i, err)
		}
	}
	return failed
}

// report describes a failed request on standard error, at most
// maxReports times per run.
func (c *checker) report(i int, err error) {
	if c.reported < maxReports {
		fmt.Fprintf(os.Stderr, "ladderbench: request %d failed: %v\n", i, err)
	}
	c.reported++
}
