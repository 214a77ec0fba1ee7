package exp_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestExperimentsBackendParity is the end-to-end differential gate: every
// registered experiment — every Table 1 cell, figure, and decision-time
// theorem — must render exactly its committed golden file. The files
// were rendered with every algorithm forced onto the reference Agent
// path and checked byte-identical to the dense rendering, so a dense
// kernel (or any other change) that moves a single digit fails here.
func TestExperimentsBackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale; skipped with -short")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool, len(files))
	for _, f := range files {
		want[f] = true
	}
	for _, e := range exp.All() {
		name := strings.ReplaceAll(e.ID, "/", "_")
		path := filepath.Join("testdata", name+".golden")
		delete(want, path)
		t.Run(name, func(t *testing.T) {
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("experiment %s has no golden rendering: %v", e.ID, err)
			}
			if got := e.Run().Render(); got != string(golden) {
				t.Fatalf("experiment %s renders differently from %s\n--- got ---\n%s\n--- golden ---\n%s",
					e.ID, path, got, golden)
			}
		})
	}
	for f := range want {
		t.Errorf("golden file %s matches no registered experiment", f)
	}
}
