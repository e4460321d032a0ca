package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of the /metrics response —
// the Prometheus text exposition format, version 0.0.4.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// nameScale converts raw int64 values to the exposition unit declared
// by the family's name suffix: the registry stores only int64s, so
// *_seconds families are recorded in nanoseconds (time.Duration's
// native unit) and rescaled by 1e-9 on the way out; everything else is
// emitted verbatim.
func nameScale(name string) float64 {
	if strings.HasSuffix(name, "_seconds") {
		return 1e-9
	}
	return 1
}

// WriteProm writes the registry in the Prometheus text exposition
// format (hand-rolled — the whole point of the package is zero
// dependencies): one # HELP / # TYPE header per family, then one line
// per series, histograms as cumulative le-buckets plus _sum and _count.
// Families and series are sorted by name so successive scrapes diff
// cleanly. A nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, f := range r.familiesSorted() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		scale := nameScale(f.name)
		for _, s := range f.seriesSorted() {
			if err := writeSeries(w, f, s, scale); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series, scale float64) error {
	switch f.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelSet(f.labelKey, s.labelVal, ""),
			formatScaled(s.ctr.Value(), scale))
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelSet(f.labelKey, s.labelVal, ""),
			formatScaled(s.gauge.Value(), scale))
		return err
	case KindHistogram:
		h := s.hist
		for _, p := range h.points() {
			le := formatFloat(p.upper * scale)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelSet(f.labelKey, s.labelVal, le), p.cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelSet(f.labelKey, s.labelVal, "+Inf"), h.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.name, labelSet(f.labelKey, s.labelVal, ""), formatFloat(float64(h.Sum())*scale)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n",
			f.name, labelSet(f.labelKey, s.labelVal, ""), h.Count())
		return err
	}
	return nil
}

// labelSet renders the {k="v",le="x"} suffix; empty when there is
// nothing to render.
func labelSet(key, val, le string) string {
	var parts []string
	if key != "" {
		parts = append(parts, key+`="`+escapeLabel(val)+`"`)
	}
	if le != "" {
		parts = append(parts, `le="`+le+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a float the way the exposition format expects:
// plain decimal where possible, no trailing garbage.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatScaled renders an int64 sample, keeping the integer form for
// unscaled families (the common case diffs cleanly) and the float form
// for fixed-point ones.
func formatScaled(v int64, scale float64) string {
	if scale == 1 {
		return strconv.FormatInt(v, 10)
	}
	return formatFloat(float64(v) * scale)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// SanitizeName maps an arbitrary obs-style dotted name ("sat.conflicts",
// "fraig.nodes_after") onto a legal Prometheus metric-name fragment:
// every character outside [a-zA-Z0-9_] becomes '_', and a leading digit
// gains a '_' prefix.
func SanitizeName(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
