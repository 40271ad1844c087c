package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// WritePrometheus renders samples in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per metric family, then
// the family's samples; histograms expand into cumulative
// _bucket{le=...} series plus _sum and _count. majicd serves this at
// /metrics.prom.
func WritePrometheus(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	var lastName string
	for _, s := range byFamily(samples) {
		if s.Name != lastName {
			if s.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.Name, escapeHelp(s.Help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.Name, s.Kind)
			lastName = s.Name
		}
		writeSample(bw, s)
	}
	return bw.Flush()
}

// byFamily orders samples so that each family's are adjacent, as the
// exposition format requires (one HELP/TYPE header per family), so an
// emitter need not keep a family's samples together: families in
// first-seen order, samples within one in emission order.
func byFamily(samples []Sample) []Sample {
	var names []string
	family := make(map[string][]Sample)
	for _, s := range samples {
		if _, seen := family[s.Name]; !seen {
			names = append(names, s.Name)
		}
		family[s.Name] = append(family[s.Name], s)
	}
	out := make([]Sample, 0, len(samples))
	for _, name := range names {
		out = append(out, family[name]...)
	}
	return out
}

func writeSample(w io.Writer, s Sample) {
	switch s.Kind {
	case KindHistogram:
		// Cumulative buckets; guarantee a trailing +Inf so the series is
		// well-formed even if the collector omitted it.
		hasInf := false
		for _, b := range s.Buckets {
			writeLine(w, s.Name+"_bucket", append(append([]Label(nil), s.Labels...),
				Label{Key: "le", Value: formatLe(b.UpperBound)}), float64(b.Count))
			if math.IsInf(b.UpperBound, 1) {
				hasInf = true
			}
		}
		if !hasInf {
			writeLine(w, s.Name+"_bucket", append(append([]Label(nil), s.Labels...),
				Label{Key: "le", Value: "+Inf"}), float64(s.Count))
		}
		writeLine(w, s.Name+"_sum", s.Labels, s.Sum)
		writeLine(w, s.Name+"_count", s.Labels, float64(s.Count))
	default:
		writeLine(w, s.Name, s.Labels, s.Value)
	}
}

func writeLine(w io.Writer, name string, labels []Label, v float64) {
	if len(labels) == 0 {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	fmt.Fprintf(w, "%s %s\n", b.String(), formatValue(v))
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// --- validation ----------------------------------------------------------------

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleLineRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)( [0-9]+)?$`)
)

// ValidatePrometheus checks a text-exposition payload for well-
// formedness: every non-comment line must parse as a sample, every
// sample's base name must have a preceding TYPE line, and TYPE/HELP
// lines must name valid metrics. It returns the number of sample lines,
// so callers can also assert the payload is non-trivial. This is the
// CI gate for /metrics.prom — a scrape that Prometheus would reject
// must fail the build, not page an operator later.
func ValidatePrometheus(payload string) (samples int, err error) {
	typed := make(map[string]string)
	for ln, line := range strings.Split(payload, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return samples, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if !metricNameRe.MatchString(fields[2]) {
				return samples, fmt.Errorf("line %d: bad metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return samples, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return samples, fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := typed[fields[2]]; dup {
					return samples, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, fields[2])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		m := sampleLineRe.FindStringSubmatch(line)
		if m == nil {
			return samples, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if _, ok := typed[m[1]]; !ok {
			if _, ok := typed[base]; !ok {
				return samples, fmt.Errorf("line %d: sample %q has no TYPE header", lineNo, m[1])
			}
		}
		samples++
	}
	return samples, nil
}
