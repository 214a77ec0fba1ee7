// Command decision sweeps the error tolerance ε and reports, for each of
// the paper's approximate-consensus settings, the decision time of the
// optimal decider next to the matching lower bound (Theorems 8-11).
//
// It is a thin shell over consensus.DecisionSweep — the same sweeps the
// reprod query server serves at /api/v1/decision.
//
// Usage:
//
//	decision                  run the built-in sweeps
//	decision -eps 1e-2,1e-4   use specific tolerances
//	decision -n 6             system size for the rooted-model sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/consensus"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "decision:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("decision", flag.ContinueOnError)
	fs.SetOutput(out)
	epsStr := fs.String("eps", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6", "comma-separated tolerances")
	n := fs.Int("n", 6, "system size for the non-split and rooted sweeps")
	if err := fs.Parse(args); err != nil {
		return err
	}

	epss, err := consensus.ParseFloats(*epsStr)
	if err != nil {
		return err
	}
	for _, eps := range epss {
		if eps <= 0 || eps > 1 {
			return fmt.Errorf("tolerance %v outside (0,1]", eps)
		}
	}
	if *n < 4 {
		return fmt.Errorf("need n >= 4 for the rooted sweep, got %d", *n)
	}

	ctx := context.Background()
	inputs := consensus.SpreadInputs(*n)

	fmt.Fprintln(out, "n = 2, model {H0,H1,H2}, two-thirds decider (Theorem 8: >= log3(Δ/ε))")
	points, err := consensus.DecisionSweep(ctx, consensus.DecisionRequest{
		Model:       "twoagent",
		Algorithm:   "twothirds",
		Adversary:   "fixed:1", // H1 every round
		Inputs:      []float64{0, 1},
		Contraction: 1.0 / 3.0,
		Eps:         epss,
		Theorem:     "T8",
	})
	if err != nil {
		return err
	}
	printSweep(out, points)

	fmt.Fprintf(out, "\nn = %d, model deaf(K_n), midpoint decider (Theorem 9: >= log2(Δ/ε))\n", *n)
	points, err = consensus.DecisionSweep(ctx, consensus.DecisionRequest{
		Model:       fmt.Sprintf("deaf:%d", *n),
		Algorithm:   "midpoint",
		Adversary:   "fixed:0", // deaf(K_n, 0) every round
		Inputs:      inputs,
		Contraction: 0.5,
		Eps:         epss,
		Theorem:     "T9",
	})
	if err != nil {
		return err
	}
	printSweep(out, points)

	fmt.Fprintf(out, "\nn = %d, Psi model, amortized midpoint decider (Theorem 10: >= (n-2)log2(Δ/ε))\n", *n)
	points, err = consensus.DecisionSweep(ctx, consensus.DecisionRequest{
		Model:       fmt.Sprintf("psi:%d", *n),
		Algorithm:   "amortized",
		Adversary:   "cycle",
		Inputs:      inputs,
		Contraction: math.Pow(0.5, 1/float64(*n-1)),
		Eps:         epss,
		Theorem:     "T10",
	})
	if err != nil {
		return err
	}
	printSweep(out, points)
	return nil
}

func printSweep(out io.Writer, points []consensus.DecisionPoint) {
	fmt.Fprintf(out, "%10s  %14s  %14s  %12s  %4s\n", "ε", "lower bound", "decider rounds", "spread", "ok")
	for _, p := range points {
		fmt.Fprintf(out, "%10.2g  %14.3f  %14d  %12.4g  %4v\n",
			p.Eps, p.LowerBound, p.Rounds, p.Spread, p.OK)
	}
}
