package tsdb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseExposition reads the Prometheus text exposition format (the subset
// used by metric collectors in the workflow):
//
//	metric_name{label="value",other="v2"} 12.5 [timestamp]
//
// Comment lines (#), blank lines, and OpenMetrics exemplar suffixes
// (`value # {request_id="..."} 1.2`) are skipped. The metric name is added
// to the returned label set under the key "__name__". Timestamps are unix
// seconds; when omitted, defaultTime is used. Label values are quoted and
// escaped as Go (and Prometheus, for \\, \" and \n) string literals.
func ParseExposition(r io.Reader, defaultTime int64) ([]Series, error) {
	scanner := bufio.NewScanner(r)
	byFP := make(map[string]*Series)
	var order []string
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		labels, value, ts, err := parseLine(line, defaultTime)
		if err != nil {
			return nil, fmt.Errorf("tsdb: exposition line %d: %w", lineNo, err)
		}
		fp := labels.Fingerprint()
		s, ok := byFP[fp]
		if !ok {
			s = &Series{Labels: labels}
			byFP[fp] = s
			order = append(order, fp)
		}
		s.Samples = append(s.Samples, Sample{T: ts, V: value})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("tsdb: exposition scan: %w", err)
	}
	out := make([]Series, 0, len(order))
	for _, fp := range order {
		out = append(out, *byFP[fp])
	}
	return out, nil
}

func parseLine(line string, defaultTime int64) (Labels, float64, int64, error) {
	labels := Labels{}
	// Metric name runs until '{' or whitespace.
	nameEnd := strings.IndexAny(line, "{ \t")
	if nameEnd <= 0 {
		return nil, 0, 0, fmt.Errorf("missing metric name")
	}
	rest := strings.TrimSpace(line[nameEnd:])
	if strings.HasPrefix(rest, "{") {
		var err error
		if rest, err = parseLabels(rest[1:], labels); err != nil {
			return nil, 0, 0, err
		}
	}
	// After the braces: the line's own name wins over a __name__ label, as
	// WriteExposition writes it.
	labels["__name__"] = line[:nameEnd]

	// Drop an OpenMetrics-style exemplar suffix (`# {labels} value`): the
	// label set is already consumed above, so any remaining '#' starts an
	// exemplar, which this parser tolerates but does not store.
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}

	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return nil, 0, 0, fmt.Errorf("expected value [timestamp], got %q", rest)
	}
	value, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	ts := defaultTime
	if len(fields) == 2 {
		ts, err = strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("bad timestamp %q: %v", fields[1], err)
		}
	}
	return labels, value, ts, nil
}

// parseLabels reads `k="v",…}` from s, which starts just past the '{', into
// labels and returns what follows the closing '}'. Each value runs to its
// closing unescaped quote, so a '}' or ',' inside one is just text, and is
// decoded with strconv.Unquote, the inverse of the %q WriteExposition (and
// obs) render it with: a value survives any number of Parse→Write trips.
func parseLabels(s string, into Labels) (string, error) {
	for {
		s = strings.TrimSpace(s)
		if strings.HasPrefix(s, "}") {
			return strings.TrimSpace(s[1:]), nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return "", fmt.Errorf("unterminated label set")
		}
		k := strings.TrimSpace(s[:eq])
		s = strings.TrimSpace(s[eq+1:])
		if !strings.HasPrefix(s, `"`) {
			return "", fmt.Errorf("label value must be quoted: %q", k)
		}
		end := 1
		for end < len(s) && s[end] != '"' {
			if s[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(s) {
			return "", fmt.Errorf("unterminated value of label %q", k)
		}
		v, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return "", fmt.Errorf("bad value of label %q: %v", k, err)
		}
		into[k] = v
		s = strings.TrimSpace(s[end+1:])
		switch {
		case strings.HasPrefix(s, ","):
			s = s[1:]
		case !strings.HasPrefix(s, "}"):
			return "", fmt.Errorf("expected ',' or '}' after label %q", k)
		}
	}
}

// MergeExpositions merges several already-parsed expositions (see
// ParseExposition) into one, tagging every series with tag=<part name> so
// the merged page keeps per-origin attribution instead of silently summing
// unrelated processes. Parts are written in sorted name order for stable
// output; the original label sets are not mutated. A part whose series
// already carry the tag label keeps its own value (the origin knows best).
func MergeExpositions(w io.Writer, tag string, parts map[string][]Series) error {
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tagged := make([]Series, len(parts[name]))
		for i, s := range parts[name] {
			lbls := s.Labels.Clone()
			if _, ok := lbls[tag]; !ok && tag != "" {
				lbls[tag] = name
			}
			tagged[i] = Series{Labels: lbls, Samples: s.Samples}
		}
		if err := WriteExposition(w, tagged); err != nil {
			return err
		}
	}
	return nil
}

// WriteExposition renders series in the text exposition format, one line
// per sample; the "__name__" label supplies the metric name (defaulting to
// "metric" when absent).
func WriteExposition(w io.Writer, series []Series) error {
	for _, s := range series {
		name := s.Labels["__name__"]
		if name == "" {
			name = "metric"
		}
		var pairs []string
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			if k == "__name__" {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			pairs = append(pairs, fmt.Sprintf("%s=%q", k, s.Labels[k]))
		}
		labelStr := ""
		if len(pairs) > 0 {
			labelStr = "{" + strings.Join(pairs, ",") + "}"
		}
		for _, smp := range s.Samples {
			if _, err := fmt.Fprintf(w, "%s%s %s %d\n", name, labelStr,
				strconv.FormatFloat(smp.V, 'g', -1, 64), smp.T); err != nil {
				return err
			}
		}
	}
	return nil
}
