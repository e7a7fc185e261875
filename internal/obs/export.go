package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"aequitas/internal/stats"
)

// SnapshotSchema versions the /snapshot JSON document.
const SnapshotSchema = "aequitas.snapshot/v1"

// Snapshot is one observability document: monotone counters,
// point-in-time gauges, and latency histograms. WriteProm renders it as
// Prometheus text; encoding/json gives the /snapshot body.
type Snapshot struct {
	Schema string `json:"schema"`
	Label  string `json:"label,omitempty"`
	// SimTimeS is the time the document describes, in seconds. The
	// serving layer writes its own age: on the wire, sim_time_s and
	// aequitas_sim_time_seconds are the server's uptime.
	SimTimeS float64        `json:"sim_time_s"`
	Counters []NamedValue   `json:"counters,omitempty"`
	Gauges   []NamedValue   `json:"gauges,omitempty"`
	Hists    []HistSnapshot `json:"hists,omitempty"`
}

// NamedValue is one counter or gauge sample. Counter names must be
// Prometheus-safe ([a-z0-9_]); gauge names keep the registry's dotted
// convention and are exported as the "name" label of aequitas_gauge.
type NamedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistSnapshot is a frozen histogram: cumulative bucket counts over
// finite upper bounds plus exact count/sum. Name must be
// Prometheus-safe; the optional label pair distinguishes series of one
// metric (e.g. class="QoSh").
type HistSnapshot struct {
	Name     string       `json:"name"`
	LabelKey string       `json:"label_key,omitempty"`
	LabelVal string       `json:"label_val,omitempty"`
	Count    int64        `json:"count"`
	Sum      float64      `json:"sum"`
	Buckets  []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one cumulative bucket: observations ≤ Upper.
type HistBucket struct {
	Upper float64 `json:"upper"`
	Count int64   `json:"count"`
}

// SnapHist freezes a stats.Hist into a HistSnapshot. The overflow
// bucket's infinite bound is clamped to the exact observed maximum, so
// the snapshot is JSON-safe; the Prometheus renderer supplies the
// trailing le="+Inf" series from Count.
func SnapHist(name, labelKey, labelVal string, h *stats.Hist) HistSnapshot {
	hs := HistSnapshot{Name: name, LabelKey: labelKey, LabelVal: labelVal}
	if h == nil {
		return hs
	}
	hs.Count = h.N()
	hs.Sum = h.Sum()
	var cum int64
	h.Buckets(func(upper float64, count int64) {
		cum += count
		if math.IsInf(upper, 1) {
			upper = h.Max()
		}
		hs.Buckets = append(hs.Buckets, HistBucket{Upper: upper, Count: cum})
	})
	return hs
}

// promPrefix namespaces every exported metric.
const promPrefix = "aequitas_"

// WriteProm renders a snapshot in the Prometheus text exposition format
// (version 0.0.4): counters as <prefix><name>, gauges as
// aequitas_gauge{name="<dotted name>"}, histograms with cumulative
// _bucket{le=...} series ending in le="+Inf", plus _sum and _count.
func WriteProm(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriterSize(w, 1<<15)
	fmt.Fprintf(bw, "# TYPE %ssim_time_seconds gauge\n%ssim_time_seconds %s\n",
		promPrefix, promPrefix, promFloat(s.SimTimeS))
	for _, c := range s.Counters {
		name := promPrefix + promSanitize(c.Name)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %s\n", name, name, promFloat(c.Value))
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(bw, "# TYPE %sgauge gauge\n", promPrefix)
		for _, g := range s.Gauges {
			fmt.Fprintf(bw, "%sgauge{name=\"%s\"} %s\n", promPrefix, promLabelValue(g.Name), promFloat(g.Value))
		}
	}
	lastHist := ""
	for _, h := range s.Hists {
		name := promPrefix + promSanitize(h.Name)
		if name != lastHist {
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
			lastHist = name
		}
		l := h.LabelKey + `="` + promLabelValue(h.LabelVal) + `"`
		label := func(le string) string {
			if h.LabelKey == "" {
				if le == "" {
					return ""
				}
				return `{le="` + le + `"}`
			}
			if le == "" {
				return "{" + l + "}"
			}
			return "{" + l + `,le="` + le + `"}`
		}
		for _, b := range h.Buckets {
			fmt.Fprintf(bw, "%s_bucket%s %d\n", name, label(promFloat(b.Upper)), b.Count)
		}
		fmt.Fprintf(bw, "%s_bucket%s %d\n", name, label("+Inf"), h.Count)
		fmt.Fprintf(bw, "%s_sum%s %s\n", name, label(""), promFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count%s %d\n", name, label(""), h.Count)
	}
	return bw.Flush()
}

// promFloat formats a value the way Prometheus parsers expect.
func promFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabelEscaper escapes what the exposition format escapes in a label
// value: backslash, double quote and line feed, nothing else.
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabelValue renders a label value, which may be outside input (the
// serving layer's peer names are): escaped per the format, with the bytes
// the format cannot carry — anything that is not UTF-8 — as U+FFFD.
// fmt's %q is Go escaping (\t, \x00, \xff), which parsers reject.
func promLabelValue(v string) string {
	return promLabelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD"))
}

// promSanitize maps a metric name onto the Prometheus charset
// [a-zA-Z_][a-zA-Z0-9_]*.
func promSanitize(name string) string {
	ok := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || (i > 0 && c >= '0' && c <= '9')) {
			ok = false
			break
		}
	}
	if ok && name != "" {
		return name
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || (i > 0 && c >= '0' && c <= '9') {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// ValidatePromText checks a Prometheus text-format exposition: every
// non-comment line is `name[{labels}] value`, names are legal, values
// parse, every sampled metric carries a preceding # TYPE line, histogram
// bucket series are cumulative and end with le="+Inf" matching _count,
// no series (name and full label set, le included) appears twice, lines
// are UTF-8 and label values use no escape but \\, \" and \n. It
// returns the number of sample lines.
func ValidatePromText(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	typed := make(map[string]string)
	type histState struct {
		lastCum int64
		infSeen bool
		infCum  int64
		count   int64
		hasCnt  bool
	}
	hists := make(map[string]*histState) // keyed by metric + non-le labels
	series := make(map[string]bool)      // metric + every label, sorted
	samples := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, value, err := splitPromSample(line)
		if err != nil {
			return samples, fmt.Errorf("obs: prom text: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return samples, fmt.Errorf("obs: prom text: line %d: bad value %q", lineNo, value)
		}
		sort.Strings(labels)
		id := name + "{" + strings.Join(labels, ",") + "}"
		if series[id] {
			return samples, fmt.Errorf("obs: prom text: line %d: repeated series %s", lineNo, id)
		}
		series[id] = true
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if typed[base] == "" {
			return samples, fmt.Errorf("obs: prom text: line %d: %s has no preceding # TYPE", lineNo, name)
		}
		if typed[base] == "histogram" {
			le, rest := extractLE(labels)
			key := base + "|" + rest
			st, ok := hists[key]
			if !ok {
				st = &histState{}
				hists[key] = st
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le == "" {
					return samples, fmt.Errorf("obs: prom text: line %d: bucket without le label", lineNo)
				}
				cum := int64(v)
				if st.infSeen {
					return samples, fmt.Errorf("obs: prom text: line %d: bucket after le=\"+Inf\" for %s", lineNo, key)
				}
				if cum < st.lastCum {
					return samples, fmt.Errorf("obs: prom text: line %d: bucket counts not cumulative for %s (%d after %d)",
						lineNo, key, cum, st.lastCum)
				}
				st.lastCum = cum
				if le == "+Inf" {
					st.infSeen = true
					st.infCum = cum
				}
			case strings.HasSuffix(name, "_count"):
				st.count = int64(v)
				st.hasCnt = true
			}
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	for key, st := range hists {
		if !st.infSeen {
			return samples, fmt.Errorf("obs: prom text: histogram %s missing le=\"+Inf\" bucket", key)
		}
		if st.hasCnt && st.count != st.infCum {
			return samples, fmt.Errorf("obs: prom text: histogram %s _count %d != +Inf bucket %d", key, st.count, st.infCum)
		}
	}
	return samples, nil
}

// splitPromSample parses `name[{labels}] value` (no timestamp support —
// WriteProm never emits one) and returns the labels as name="value"
// pairs, still escaped.
func splitPromSample(line string) (name string, labels []string, value string, err error) {
	if !utf8.ValidString(line) {
		return "", nil, "", fmt.Errorf("not UTF-8: %q", line)
	}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, "", fmt.Errorf("no value")
	}
	name, rest := line[:i], line[i+1:]
	if line[i] == '{' {
		if labels, rest, err = splitPromLabels(rest); err != nil {
			return "", nil, "", err
		}
	}
	rest = strings.TrimSpace(rest)
	if !promNameOK(name) {
		return "", nil, "", fmt.Errorf("bad metric name %q", name)
	}
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return "", nil, "", fmt.Errorf("bad sample %q", line)
	}
	return name, labels, rest, nil
}

// splitPromLabels splits what follows '{' into its name="value" pairs
// and what follows the closing '}'. Inside a value only the format's
// three escapes may appear: \\, \" and \n.
func splitPromLabels(s string) (pairs []string, rest string, err error) {
	start, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quoted && c == '\\':
			i++
			if i == len(s) || !strings.ContainsRune(`\"n`, rune(s[i])) {
				return nil, "", fmt.Errorf("bad escape in label set {%s", s)
			}
		case c == '"':
			quoted = !quoted
		case quoted:
		case c == ',' || c == '}':
			if i > start {
				k, v, _ := strings.Cut(s[start:i], "=")
				if !promNameOK(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return nil, "", fmt.Errorf("bad label %q", s[start:i])
				}
				pairs = append(pairs, s[start:i])
			}
			start = i + 1
			if c == '}' {
				return pairs, s[i+1:], nil
			}
		}
	}
	return nil, "", fmt.Errorf("unterminated label set")
}

// promNameOK reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func promNameOK(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case i > 0 && c >= '0' && c <= '9':
		default:
			return false
		}
	}
	return len(name) > 0
}

// extractLE splits a label set into the le value and the remaining
// labels, sorted so grouping keys are stable.
func extractLE(labels []string) (le, rest string) {
	var others []string
	for _, part := range labels {
		if v, ok := strings.CutPrefix(part, "le="); ok {
			le = strings.Trim(v, `"`)
		} else {
			others = append(others, part)
		}
	}
	sort.Strings(others)
	return le, strings.Join(others, ",")
}
