// Package exp is the experiment harness: one registered experiment per
// cell of Table 1, per figure, and per decision-time theorem of Függer,
// Nowak, Schwarz (PODC 2018), each regenerating the corresponding
// paper-reported numbers (bounds) next to the measured ones.
//
// The registry is consumed by cmd/paperbench (human-readable tables), by
// the repository-level benchmarks (one bench per experiment), and by the
// integration tests.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/valency"
)

// Table is a rendered experiment result: a header, rows, and free-form
// notes (e.g. the paper claim being reproduced).
type Table struct {
	ID     string
	Title  string
	Paper  string // the paper artifact this reproduces, e.g. "Table 1, column 1"
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.6g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table as aligned monospace text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&sb, "reproduces: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len([]rune(c)); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-ish comma-separated values (header
// row first; cells containing commas or quotes are quoted). Notes are
// emitted as trailing comment lines prefixed with "#".
func (t *Table) CSV() string {
	var sb strings.Builder
	writeCSVRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeCSVRow(t.Header)
	for _, row := range t.Rows {
		writeCSVRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("# ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Experiment is a registered reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Paper string
	Run   func() *Table
}

var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs are programmer errors.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns the sorted experiment IDs.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// deltaLower and deltaUpper are the engine's certified bounds on δ(C)
// for the experiment tables. An experiment runs to completion, so its
// valency queries run under a context that is never cancelled and
// return no error.
func deltaLower(eng *valency.Engine, c *core.Config) float64 {
	d, _ := eng.DeltaLower(context.Background(), c)
	return d
}

func deltaUpper(eng *valency.Engine, c *core.Config) float64 {
	d, _ := eng.DeltaUpper(context.Background(), c)
	return d
}
