package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The span section is the one binary form of a span tree: what a wire reply
// carries after its prediction, and what a trace store keeps. A section is a
// uvarint span count, then per span its id, parent id and name (uvarint
// length, bytes), its start in unix microseconds (varint), its duration in
// milliseconds (float64 bits, little-endian) and its attributes (a uvarint
// count, then key and value strings, keys ascending). A section carries no
// trace id: a wire reply's is its request id, and a stored trace holds its
// spans as (trace id, section) groups, each group the trace id as a string
// followed by one section.

// Span section limits. A section from a peer (SpanSectionLen) has every
// length checked against them and against the bytes left, so a hostile
// section costs at most its own size. They bound what a peer may send, not
// what a trace may hold: the stored form is this process's own encoding of
// whatever it kept, and DecodeSpans checks it against the bytes left only.
const (
	MaxSectionSpans = 1024
	MaxSpanAttrs    = 64
	maxSpanString   = 64 << 10
)

// ErrSpanSection is the error every span section decoder returns, wrapped
// with what failed where.
var ErrSpanSection = errors.New("obs: corrupt span section")

type bytestring interface{ ~string | ~[]byte }

func appendSpanString[T bytestring](dst []byte, s T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendSpan appends one span of a section up to and including its
// attribute count; the caller appends that many attributes with AppendAttr,
// keys ascending. A renderer that has no Span to hand (a stage record) writes
// a section with it directly, after the span count.
func AppendSpan(dst []byte, id, parent, name string, startUnixUS int64, durationMS float64, attrs int) []byte {
	dst = appendSpanString(dst, id)
	dst = appendSpanString(dst, parent)
	dst = appendSpanString(dst, name)
	dst = binary.AppendVarint(dst, startUnixUS)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(durationMS))
	return binary.AppendUvarint(dst, uint64(attrs))
}

// AppendAttr appends one attribute of the span AppendSpan opened.
func AppendAttr(dst []byte, key, value string) []byte {
	return appendSpanString(appendSpanString(dst, key), value)
}

// AppendSpanSection appends spans as one section; their trace ids are not
// part of it.
func AppendSpanSection(dst []byte, spans []Span) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(spans)))
	var keys []string
	for i := range spans {
		sp := &spans[i]
		dst = AppendSpan(dst, sp.SpanID, sp.ParentID, sp.Name, sp.StartUnixUS, sp.DurationMS, len(sp.Attrs))
		keys = keys[:0]
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = AppendAttr(dst, k, sp.Attrs[k])
		}
	}
	return dst
}

// AppendSpanGroup opens one group of a stored trace's spans: the group's
// trace id. The caller appends the group's span section.
func AppendSpanGroup[T bytestring](dst []byte, traceID T) []byte {
	return appendSpanString(dst, traceID)
}

// AppendSpans appends spans in stored form: one group per run of spans
// sharing a trace id, in order.
func AppendSpans(dst []byte, spans []Span) []byte {
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].TraceID == spans[i].TraceID {
			j++
		}
		dst = AppendSpanSection(AppendSpanGroup(dst, spans[i].TraceID), spans[i:j])
		i = j
	}
	return dst
}

// SpanSectionLen checks the span section at the head of p and returns its
// length in bytes and its span count. It allocates nothing.
func SpanSectionLen(p []byte) (n, spans int, err error) {
	r := spanReader[[]byte]{b: p}
	_, spans = r.section(nil, nil, false)
	if r.err != nil {
		return 0, 0, r.err
	}
	return len(p) - len(r.b), spans, nil
}

// DecodeSpans decodes spans in stored form (AppendSpans, AppendSpanGroup),
// each under its group's trace id, whatever their number and sizes: only the
// bytes left bound a length. The spans' strings sub-slice stored.
func DecodeSpans(stored string) ([]Span, error) {
	r := spanReader[string]{b: stored, stored: true}
	var spans []Span
	for len(r.b) > 0 && r.err == nil {
		spans, _ = r.section(spans, r.str("trace id"), true)
	}
	return spans, r.finish()
}

// spanReader walks a section, or stored groups, with bounds-checked reads
// over either bytes (a payload being validated) or a string (a stored trace
// being decoded). The first failure is kept and empties b, so later reads
// return zeros; the context is formatted on the failure path only.
type spanReader[T bytestring] struct {
	b   T
	err error
	// stored lifts the section limits: the walk reads the stored form.
	stored bool
}

func (r *spanReader[T]) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrSpanSection}, args...)...)
	}
	r.b = r.b[:0]
}

func (r *spanReader[T]) finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.failf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// next is binary.Uvarint over either form: it consumes one uvarint and
// reports whether there was one.
func (r *spanReader[T]) next() (uint64, bool) {
	if len(r.b) > 0 && r.b[0] < 0x80 { // most lengths and counts: one byte
		v := uint64(r.b[0])
		r.b = r.b[1:]
		return v, true
	}
	var v uint64
	for i := 0; i < len(r.b) && i < binary.MaxVarintLen64; i++ {
		c := r.b[i]
		if i == binary.MaxVarintLen64-1 && c > 1 {
			break // overflows 64 bits
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			r.b = r.b[i+1:]
			return v, true
		}
	}
	return 0, false
}

func (r *spanReader[T]) uvarint(what string) uint64 {
	v, ok := r.next()
	if !ok {
		r.failf("%s", what)
	}
	return v
}

func (r *spanReader[T]) count(what string, max uint64) int {
	v := r.uvarint(what)
	if v > max && !r.stored {
		r.failf("%s %d", what, v)
		return 0
	}
	return int(v)
}

func (r *spanReader[T]) str(what string) T {
	n, ok := r.next()
	if !ok {
		r.failf("%s length", what)
		return r.b
	}
	if (n > maxSpanString && !r.stored) || n > uint64(len(r.b)) {
		r.failf("%s length %d", what, n)
		return r.b
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *spanReader[T]) f64(what string) float64 {
	if len(r.b) < 8 {
		r.failf("%s", what)
		return 0
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(r.b[i])
	}
	r.b = r.b[8:]
	return math.Float64frombits(v)
}

// section walks one span section and returns its span count; with keep it
// also appends the spans to dst, each under traceID. SpanSectionLen runs it
// without keep and the decoders with it, so what was accepted once always
// decodes.
func (r *spanReader[T]) section(dst []Span, traceID T, keep bool) ([]Span, int) {
	n := r.count("span count", MaxSectionSpans)
	for i := 0; i < n && r.err == nil; i++ {
		id, parent, name := r.str("span id"), r.str("span parent"), r.str("span name")
		ux := r.uvarint("span start")
		start := int64(ux >> 1)
		if ux&1 != 0 {
			start = ^start
		}
		dur := r.f64("span duration")
		attrs := r.count("span attr count", MaxSpanAttrs)
		sp := Span{StartUnixUS: start, DurationMS: dur}
		for j := 0; j < attrs && r.err == nil; j++ {
			k, v := r.str("span attr key"), r.str("span attr value")
			if keep {
				sp.SetAttr(string(k), string(v))
			}
		}
		if keep && r.err == nil {
			sp.TraceID, sp.SpanID, sp.ParentID, sp.Name = string(traceID), string(id), string(parent), string(name)
			dst = append(dst, sp)
		}
	}
	return dst, n
}
