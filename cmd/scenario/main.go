// Command scenario records, generates, inspects, certifies, and replays
// dynamic-network schedules — the command-line face of the scenario
// plane (consensus/scenario and the reprod /api/v1/scenario endpoint).
//
// A schedule comes from one of two places: a generator spec resolved
// against the consensus Scenarios registry (-scenario), or a binary
// trace file written earlier (-in). Traces are deterministic and
// fingerprinted, so "record on one machine, certify and replay on
// another" is exact.
//
// Usage:
//
//	scenario list
//	scenario record  -model psi:4 -adversary greedy -rounds 12 -o run.trace
//	scenario gen     -scenario partitionheal:8,2,5 -o part.trace
//	scenario inspect -in run.trace [-graphs]
//	scenario certify -in run.trace [-model psi:4] [-rounds 64]
//	scenario replay  -in run.trace -algorithm midpoint -rounds 12 [-fingerprints]
//
// replay prints the per-round diameter series and, with -fingerprints,
// the per-round configuration fingerprint digests, computed on the dense
// state when the algorithm has a dense stepper and on the agent
// configuration otherwise; the two paths give identical digests.
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/consensus"
	"repro/consensus/scenario"
	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("want a subcommand: list | record | gen | inspect | certify | replay")
	}
	switch args[0] {
	case "list":
		return runList(out)
	case "record":
		return runRecord(args[1:], out)
	case "gen":
		return runGen(args[1:], out)
	case "inspect":
		return runInspect(args[1:], out)
	case "certify":
		return runCertify(args[1:], out)
	case "replay":
		return runReplay(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want list | record | gen | inspect | certify | replay)", args[0])
	}
}

func runList(out io.Writer) error {
	for _, f := range consensus.Scenarios.Describe() {
		fmt.Fprintf(out, "%-18s %-40s %s\n", f.Name, f.Usage, f.Summary)
	}
	return nil
}

// loadFlags registers the shared schedule-source flags (-in | -scenario)
// on fs and returns the loader to call after parsing.
func loadFlags(fs *flag.FlagSet) func() (*scenario.Schedule, error) {
	inPath := fs.String("in", "", "read the schedule from this binary trace file")
	spec := fs.String("scenario", "", "resolve the schedule from this generator spec (see 'scenario list')")
	return func() (*scenario.Schedule, error) {
		switch {
		case *inPath != "" && *spec != "":
			return nil, fmt.Errorf("-in and -scenario are mutually exclusive")
		case *inPath != "":
			data, err := os.ReadFile(*inPath)
			if err != nil {
				return nil, err
			}
			return scenario.Decode(data)
		case *spec != "":
			return consensus.Scenarios.New(*spec, consensus.ScenarioEnv{
				Models: consensus.Models, Scenarios: consensus.Scenarios,
			})
		default:
			return nil, fmt.Errorf("want -in FILE or -scenario SPEC")
		}
	}
}

func writeTrace(out io.Writer, sch *scenario.Schedule, path string) error {
	if err := os.WriteFile(path, sch.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %s\n", path, sch)
	return nil
}

func runRecord(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenario record", flag.ContinueOnError)
	fs.SetOutput(out)
	modelSpec := fs.String("model", "", "model spec the adversary draws from")
	algSpec := fs.String("algorithm", "midpoint", "algorithm under attack")
	advSpec := fs.String("adversary", "greedy", "adversary/scheduler spec to record")
	rounds := fs.Int("rounds", consensus.DefaultRounds, "rounds to record")
	seed := fs.Int64("seed", consensus.DefaultSeed, "RNG seed for seeded adversaries")
	depth := fs.Int("depth", consensus.DefaultDepth, "valency depth for greedy adversaries")
	inputsFlag := fs.String("inputs", "", "comma-separated initial values (default: spread)")
	outPath := fs.String("o", "", "trace output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("record needs -o FILE")
	}
	opts := []consensus.Option{
		consensus.WithAlgorithm(*algSpec),
		consensus.WithAdversary(*advSpec),
		consensus.WithRounds(*rounds),
		consensus.WithSeed(*seed),
		consensus.WithDepth(*depth),
	}
	if *modelSpec != "" {
		opts = append(opts, consensus.WithModel(*modelSpec))
	}
	if *inputsFlag != "" {
		inputs, err := consensus.ParseFloats(*inputsFlag)
		if err != nil {
			return err
		}
		opts = append(opts, consensus.WithInputs(inputs...))
	}
	session, err := consensus.New(opts...)
	if err != nil {
		return err
	}
	res, sch, err := session.RunRecorded(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d rounds of %s vs %s: diameter %.6g -> %.6g\n",
		res.Rounds(), session.Algorithm(), *advSpec, res.DiameterAt(0), res.DiameterAt(res.Rounds()))
	return writeTrace(out, sch, *outPath)
}

func runGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenario gen", flag.ContinueOnError)
	fs.SetOutput(out)
	load := loadFlags(fs)
	outPath := fs.String("o", "", "trace output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("gen needs -o FILE")
	}
	sch, err := load()
	if err != nil {
		return err
	}
	return writeTrace(out, sch, *outPath)
}

func runInspect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenario inspect", flag.ContinueOnError)
	fs.SetOutput(out)
	load := loadFlags(fs)
	graphs := fs.Bool("graphs", false, "print every round's graph")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sch, err := load()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "agents:          %d\n", sch.N())
	fmt.Fprintf(out, "prefix rounds:   %d\n", sch.PrefixLen())
	if sch.Finite() {
		fmt.Fprintf(out, "tail:            finite (last graph repeats)\n")
	} else {
		fmt.Fprintf(out, "loop rounds:     %d\n", sch.LoopLen())
	}
	fmt.Fprintf(out, "distinct graphs: %d\n", sch.DistinctGraphs())
	fmt.Fprintf(out, "trace bytes:     %d\n", len(sch.Encode()))
	fmt.Fprintf(out, "fingerprint:     %s\n", sch.Fingerprint())
	if *graphs {
		for t := 1; t <= sch.Horizon(); t++ {
			kind := "prefix"
			if t > sch.PrefixLen() {
				kind = "loop"
			}
			fmt.Fprintf(out, "  round %3d (%s): %v\n", t, kind, sch.At(t))
		}
	}
	return nil
}

func runCertify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenario certify", flag.ContinueOnError)
	fs.SetOutput(out)
	load := loadFlags(fs)
	modelSpec := fs.String("model", "", "also certify membership in this model")
	rounds := fs.Int("rounds", 0, "certification horizon (default: prefix + one loop)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sch, err := load()
	if err != nil {
		return err
	}
	req := consensus.ScenarioRequest{Trace: sch.Encode(), Model: *modelSpec, Rounds: *rounds}
	rep, err := consensus.RunScenario(context.Background(), req)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", sch)
	fmt.Fprint(out, rep.Certificate.Summary())
	return nil
}

func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenario replay", flag.ContinueOnError)
	fs.SetOutput(out)
	load := loadFlags(fs)
	algSpec := fs.String("algorithm", "midpoint", "algorithm to run over the schedule")
	rounds := fs.Int("rounds", 0, "rounds to replay (default: prefix + one loop)")
	inputsFlag := fs.String("inputs", "", "comma-separated initial values (default: spread)")
	fingerprints := fs.Bool("fingerprints", false, "print each round's configuration fingerprint digest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sch, err := load()
	if err != nil {
		return err
	}
	R := *rounds
	if R <= 0 {
		R = sch.Horizon()
	}
	opts := []consensus.Option{
		consensus.WithScenario(sch),
		consensus.WithAlgorithm(*algSpec),
		consensus.WithRounds(R),
	}
	if *inputsFlag != "" {
		inputs, err := consensus.ParseFloats(*inputsFlag)
		if err != nil {
			return err
		}
		opts = append(opts, consensus.WithInputs(inputs...))
	}
	session, err := consensus.New(opts...)
	if err != nil {
		return err
	}
	// The replay state stepped again, independently of the session, and
	// fingerprinted per round.
	var fpAt func(round int) string
	if *fingerprints {
		alg, err := consensus.Algorithms.New(*algSpec, session.N())
		if err != nil {
			return err
		}
		fpAt = newFingerprintStepper(alg, session.Inputs(), sch)
	}
	fmt.Fprintf(out, "replaying %s over %s (%d rounds)\n", session.Algorithm(), sch, R)
	var diams []float64
	for snap, err := range session.Rounds(context.Background()) {
		if err != nil {
			return err
		}
		diams = append(diams, snap.Diameter)
		line := fmt.Sprintf("round %3d  diameter %.9g", snap.Round, snap.Diameter)
		if fpAt != nil {
			line += "  fp " + fpAt(snap.Round)
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "geometric rate %.6g, worst round ratio %.6g\n",
		consensus.GeometricRate(diams), consensus.WorstRoundRatio(diams))
	return nil
}

// newFingerprintStepper returns a function yielding the short
// configuration-fingerprint digest after each schedule round, computed
// on the dense state when alg has a dense stepper and on an agent
// configuration otherwise. Rounds must be requested in ascending order.
func newFingerprintStepper(alg core.Algorithm, inputs []float64, sch *scenario.Schedule) func(round int) string {
	digest := func(fp []byte, ok bool) string {
		if !ok {
			return "n/a"
		}
		sum := sha256.Sum256(fp)
		return fmt.Sprintf("%x", sum[:8])
	}
	if d, ok := core.AsDense(alg); ok {
		r := core.NewDenseRunner(d, inputs)
		return func(round int) string {
			for r.Round() < round {
				r.Step(sch.At(r.Round() + 1))
			}
			fp, ok := core.AppendDenseFingerprint(d, r.State(), nil)
			return digest(fp, ok)
		}
	}
	c := core.NewConfig(alg, inputs)
	return func(round int) string {
		for c.Round() < round {
			c.StepInPlace(sch.At(c.Round() + 1))
		}
		fp, ok := c.AppendFingerprint(nil)
		return digest(fp, ok)
	}
}
