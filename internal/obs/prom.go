package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// PromWriter accumulates Prometheus text-exposition-format output
// (version 0.0.4): "# HELP"/"# TYPE" family headers followed by
// samples. Callers drive it with sorted data; the writer itself never
// reorders, so output is a byte-deterministic function of the call
// sequence.
type PromWriter struct {
	sb strings.Builder
}

// Label is one sample label. Slices of labels are emitted in the order
// given — pre-sort them for canonical output.
type Label struct {
	Name, Value string
}

// Family opens a metric family: typ is one of "counter", "gauge",
// "histogram", "summary", or "untyped".
func (p *PromWriter) Family(name, typ, help string) {
	if help != "" {
		p.sb.WriteString("# HELP ")
		p.sb.WriteString(name)
		p.sb.WriteByte(' ')
		p.sb.WriteString(escapeHelp(help))
		p.sb.WriteByte('\n')
	}
	p.sb.WriteString("# TYPE ")
	p.sb.WriteString(name)
	p.sb.WriteByte(' ')
	p.sb.WriteString(typ)
	p.sb.WriteByte('\n')
}

// Value emits one sample.
func (p *PromWriter) Value(name string, labels []Label, v float64) {
	p.sb.WriteString(name)
	p.writeLabels(labels)
	p.sb.WriteByte(' ')
	p.sb.WriteString(formatPromValue(v))
	p.sb.WriteByte('\n')
}

// Histogram emits one histogram series: cumulative bucket counts with
// "le" labels (buckets[i] counts observations in (bounds[i-1],
// bounds[i]], non-cumulative, as internal/telemetry snapshots them), a
// +Inf bucket, and the _sum/_count samples.
func (p *PromWriter) Histogram(name string, labels []Label, bounds []float64, counts []int64, count int64, sum float64) {
	var cum int64
	for i, bound := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		le := append(append([]Label(nil), labels...), Label{"le", formatPromValue(bound)})
		p.Value(name+"_bucket", le, float64(cum))
	}
	le := append(append([]Label(nil), labels...), Label{"le", "+Inf"})
	p.Value(name+"_bucket", le, float64(count))
	p.Value(name+"_sum", labels, sum)
	p.Value(name+"_count", labels, float64(count))
}

// WriteTo flushes the accumulated exposition.
func (p *PromWriter) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, p.sb.String())
	return int64(n), err
}

// String returns the accumulated exposition.
func (p *PromWriter) String() string { return p.sb.String() }

func (p *PromWriter) writeLabels(labels []Label) {
	if len(labels) == 0 {
		return
	}
	p.sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			p.sb.WriteByte(',')
		}
		p.sb.WriteString(l.Name)
		p.sb.WriteString(`="`)
		p.sb.WriteString(escapeLabel(l.Value))
		p.sb.WriteByte('"')
	}
	p.sb.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a help string: backslash and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatPromValue renders a sample value, with the format's spellings
// for infinities and NaN.
func formatPromValue(v float64) string {
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

// SanitizePromName maps an arbitrary metric name ("telemetry.limiter_drops")
// onto the exposition grammar [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every
// other byte with '_'.
func SanitizePromName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}

// ValidatePromText checks exposition syntax: every line is a HELP, a
// TYPE, or a well-formed sample, every sample belongs to the most
// recently opened family (histogram samples by their _bucket/_sum/_count
// suffix), no family opens twice, and non-empty text ends in a newline.
// It returns the first violation, naming its line. Tests of every
// PromWriter caller run their output through it.
func ValidatePromText(text string) error {
	if text == "" {
		return nil
	}
	var (
		sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9.e+-]+|[+-]Inf|NaN)$`)
		typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
		helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .*$`)
	)
	if !strings.HasSuffix(text, "\n") {
		return fmt.Errorf("exposition does not end in a newline")
	}
	family := ""
	seen := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case helpRe.MatchString(line):
		case typeRe.MatchString(line):
			family = typeRe.FindStringSubmatch(line)[1]
			if seen[family] {
				return fmt.Errorf("line %d: family %s opened twice", i+1, family)
			}
			seen[family] = true
		case sampleRe.MatchString(line):
			name := sampleRe.FindStringSubmatch(line)[1]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if name != family && base != family {
				return fmt.Errorf("line %d: sample %s outside its family (current %s)", i+1, name, family)
			}
		default:
			return fmt.Errorf("line %d: not valid exposition syntax: %q", i+1, line)
		}
	}
	return nil
}
