package obs

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) over the registry.
//
// Registry.Snapshot flattens histograms into pre-digested quantiles, which
// is right for humans but wrong for a scraper: Prometheus wants the
// raw cumulative bucket counts so it can aggregate across instances and
// compute quantiles server-side. WritePrometheus therefore reads the
// registry's typed state directly — counters and gauges as single samples,
// histograms as the full `_bucket{le="..."}` / `_sum` / `_count` family —
// instead of going through Snapshot.

// promPrefix namespaces every exposed metric; dotted internal names like
// "query.ns" become "rawdb_query_ns".
const promPrefix = "rawdb_"

// PromName normalizes an internal metric name to the Prometheus charset
// [a-zA-Z0-9_:] and applies the rawdb_ namespace prefix. Dots and dashes
// (the only separators internal names use) map to underscores; anything
// else unexpected maps to underscore too rather than producing an invalid
// exposition.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(promPrefix) + len(name))
	b.WriteString(promPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in Prometheus text exposition format:
// sorted by metric name, one HELP/TYPE header per family, histograms as
// cumulative buckets with power-of-two upper edges plus +Inf. Gauges are
// evaluated at call time (they are pull-mode closures).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	help := maps.Clone(r.help)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, name := range sortedNames(counters) {
		pn := PromName(name)
		text, ok := help[name]
		if !ok {
			text = "rawdb counter " + name
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", pn, text)
		fmt.Fprintf(bw, "# TYPE %s counter\n", pn)
		fmt.Fprintf(bw, "%s %d\n", pn, counters[name].Load())
	}
	gaugeNames := make([]string, 0, len(gauges))
	for k := range gauges {
		gaugeNames = append(gaugeNames, k)
	}
	sort.Strings(gaugeNames)
	for _, name := range gaugeNames {
		pn := PromName(name)
		fmt.Fprintf(bw, "# HELP %s rawdb gauge %s\n", pn, name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(bw, "%s %d\n", pn, gauges[name]())
	}
	for _, name := range sortedNames(hists) {
		writePromHistogram(bw, name, hists[name])
	}
	return bw.Flush()
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// writePromHistogram emits one histogram family. Buckets are cumulative and
// le edges inclusive, per the exposition format; empty leading/trailing
// buckets collapse so a latency histogram exposes a handful of series, not
// 48. The _count sample is derived from the bucket total rather than the
// separate count field so the family is internally consistent even when
// concurrent Observe calls land between the two loads.
func writePromHistogram(w io.Writer, name string, h *Histogram) {
	pn := PromName(name)
	fmt.Fprintf(w, "# HELP %s rawdb histogram %s\n", pn, name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
	buckets := h.Buckets()
	sum := h.Sum()
	hi := -1
	for i, c := range buckets {
		if c != 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, BucketBound(i), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
	fmt.Fprintf(w, "%s_sum %d\n", pn, sum)
	fmt.Fprintf(w, "%s_count %d\n", pn, cum)
}

// LintPrometheus validates Prometheus text exposition read from r: metric
// name charset, HELP/TYPE headers preceding their series, at most one TYPE
// per family, non-decreasing cumulative buckets ending in an +Inf bucket,
// and _count matching the +Inf bucket. It is the format checker CI runs
// against a live /metrics?format=prom scrape (cmd/promcheck), kept in this
// package so unit tests validate the writer against the same rules.
func LintPrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	typed := make(map[string]string) // family → declared type
	var lastBucket = make(map[string]int64)
	var sawInf = make(map[string]bool)
	counts := make(map[string]int64)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineno, line)
			}
			if !validPromName(fields[2]) {
				return fmt.Errorf("line %d: invalid metric name %q", lineno, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return fmt.Errorf("line %d: TYPE without a type", lineno)
				}
				if _, dup := typed[fields[2]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineno, fields[2])
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineno, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineno, err)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("line %d: sample %s before its TYPE line", lineno, name)
		}
		if typed[family] == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: histogram bucket without le label", lineno)
				}
				if value < lastBucket[family] {
					return fmt.Errorf("line %d: bucket le=%q of %s decreases (%d < %d)",
						lineno, le, family, value, lastBucket[family])
				}
				lastBucket[family] = value
				if le == "+Inf" {
					sawInf[family] = true
				}
			case strings.HasSuffix(name, "_count"):
				counts[family] = value
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for family, typ := range typed {
		if typ != "histogram" {
			continue
		}
		if !sawInf[family] {
			return fmt.Errorf("histogram %s has no +Inf bucket", family)
		}
		if c, ok := counts[family]; ok && c != lastBucket[family] {
			return fmt.Errorf("histogram %s: _count %d != +Inf bucket %d",
				family, c, lastBucket[family])
		}
	}
	if len(typed) == 0 {
		return fmt.Errorf("no metrics found")
	}
	return nil
}

func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// parsePromSample splits one sample line into name, labels and an integer
// value (rawdb only emits integers; a float mantissa would fail here, which
// is what we want the linter to flag).
func parsePromSample(line string) (string, map[string]string, int64, error) {
	labels := map[string]string{}
	rest := line
	name := rest
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.IndexByte(rest, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		for _, pair := range strings.Split(rest[i+1:end], ",") {
			if pair == "" {
				continue
			}
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			val := pair[eq+1:]
			if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value %q", pair)
			}
			labels[pair[:eq]] = val[1 : len(val)-1]
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("non-integer value in %q", line)
	}
	return name, labels, v, nil
}
