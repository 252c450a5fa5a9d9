package obs

import (
	"strings"
	"time"
)

// TraceParentHeader is the HTTP header that propagates span parentage
// across processes, traceparent-style: it names the span on the caller's
// side that a callee's root span should parent onto. It travels beside
// RequestIDHeader — the request id doubles as the trace id, so the pair
// fully places a remote process's spans in the caller's trace tree.
const TraceParentHeader = "Traceparent"

// traceParentVersion and traceParentFlags bracket the header value. The
// format follows the W3C traceparent shape (version-traceid-spanid-flags),
// though the trace id reuses this codebase's 16-hex request id rather than
// the 32-hex W3C one.
const (
	traceParentVersion = "00"
	traceParentFlags   = "01"
)

// NewSpanID returns a fresh 16-hex-character span id (same format and
// entropy source as request ids).
func NewSpanID() string { return NewRequestID() }

// FormatTraceParent renders the propagation header value for a span.
func FormatTraceParent(traceID, spanID string) string {
	return traceParentVersion + "-" + traceID + "-" + spanID + "-" + traceParentFlags
}

// AppendTraceParent appends what FormatTraceParent returns, for a caller
// that stamps many requests out of one buffer.
func AppendTraceParent(dst []byte, traceID, spanID string) []byte {
	dst = append(dst, traceParentVersion+"-"...)
	dst = append(dst, traceID...)
	dst = append(dst, '-')
	dst = append(dst, spanID...)
	return append(dst, "-"+traceParentFlags...)
}

// ParseTraceParent extracts the trace id and parent span id from a
// traceparent-style header value: exactly four dash-separated fields, the
// middle two non-empty. ok is false for anything malformed — callers then
// start a fresh root rather than failing the request. The ids sub-slice v.
func ParseTraceParent(v string) (traceID, spanID string, ok bool) {
	a := strings.IndexByte(v, '-')
	if a < 0 {
		return "", "", false
	}
	rest := v[a+1:]
	b := strings.IndexByte(rest, '-')
	if b <= 0 {
		return "", "", false
	}
	traceID, rest = rest[:b], rest[b+1:]
	c := strings.IndexByte(rest, '-')
	if c <= 0 || strings.IndexByte(rest[c+1:], '-') >= 0 {
		return "", "", false
	}
	return traceID, rest[:c], true
}

// Span is one timed operation within a request's trace: a node in the span
// tree identified by (TraceID, SpanID), attached under ParentID (empty for
// a root). Durations are float64 milliseconds like every latency metric
// here; start times are unix microseconds so spans from different processes
// order on a shared clock.
type Span struct {
	TraceID     string            `json:"trace_id"`
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_id,omitempty"`
	Name        string            `json:"name"`
	StartUnixUS int64             `json:"start_unix_us"`
	DurationMS  float64           `json:"duration_ms"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// NewSpan returns a span with a fresh id covering [start, end).
func NewSpan(traceID, parentID, name string, start, end time.Time) Span {
	return Span{
		TraceID:     traceID,
		SpanID:      NewSpanID(),
		ParentID:    parentID,
		Name:        name,
		StartUnixUS: start.UnixMicro(),
		DurationMS:  MS(end.Sub(start)),
	}
}

// SetAttr attaches one key/value attribute, allocating the map lazily.
func (s *Span) SetAttr(k, v string) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
}
