package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// WritePrometheus writes every registered series in the Prometheus
// text exposition format (version 0.0.4), sorted by name so output is
// stable across scrapes. Series whose name carries an inline label set
// (`name{label="v"}`) are grouped under one HELP/TYPE header per base
// name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	snap := make(map[string]*metric, len(r.metrics))
	for name, m := range r.metrics {
		snap[name] = m
	}
	r.mu.Unlock()
	// Sort by base name first so labeled variants of one series stay
	// adjacent and share a single header block.
	sort.Slice(names, func(i, j int) bool {
		bi, _ := splitName(names[i])
		bj, _ := splitName(names[j])
		if bi != bj {
			return bi < bj
		}
		return names[i] < names[j]
	})

	lastBase := ""
	for _, name := range names {
		m := snap[name]
		base, labels := splitName(name)
		if base != lastBase {
			if err := writeHeader(w, base, m); err != nil {
				return err
			}
			lastBase = base
		}
		if err := writeSeries(w, base, labels, m); err != nil {
			return err
		}
	}
	return nil
}

// WriteAllPrometheus writes several registries' series to one stream —
// the /metrics handlers use it to combine an instance registry with
// the process-wide Default() registry.
func WriteAllPrometheus(w io.Writer, regs ...*Registry) error {
	for _, r := range regs {
		if err := r.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

// splitName separates `base{label="v"}` into base and the inner label
// string (`label="v"`, empty when the name carries no labels).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

func writeHeader(w io.Writer, base string, m *metric) error {
	typ := "counter"
	switch m.kind {
	case kindGauge, kindGaugeFunc:
		typ = "gauge"
	case kindHistogram:
		typ = "histogram"
	}
	if m.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, m.help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
	return err
}

func writeSeries(w io.Writer, base, labels string, m *metric) error {
	braced := ""
	if labels != "" {
		braced = "{" + labels + "}"
	}
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", base, braced, m.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", base, braced, formatFloat(m.gauge.Value()))
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", base, braced, formatFloat(m.gaugeFn()))
		return err
	case kindHistogram:
		return writeHistogram(w, base, labels, m.histogram)
	}
	return nil
}

func writeHistogram(w io.Writer, base, labels string, h *Histogram) error {
	counts := h.BucketCounts()
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		le := formatFloat(bound)
		if err := writeBucket(w, base, labels, le, cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if err := writeBucket(w, base, labels, "+Inf", cum); err != nil {
		return err
	}
	braced := ""
	if labels != "" {
		braced = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, braced, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, braced, h.Count())
	return err
}

func writeBucket(w io.Writer, base, labels, le string, cum uint64) error {
	all := `le="` + le + `"`
	if labels != "" {
		all = labels + "," + all
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, all, cum)
	return err
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest round-trip form, with NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}
