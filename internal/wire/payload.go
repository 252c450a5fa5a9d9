package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/serve"
)

// Payload limits. Everything a decoder allocates is bounded up front, so a
// corrupt or hostile length can cost at most the frame it arrived in.
const (
	maxStringLen = 64 << 10 // ids, names, error messages
	maxSpans     = 1024
	maxAttrs     = 64
)

// ── primitive readers ──────────────────────────────────────────────────

// reader walks a payload with bounds-checked reads. The first failure is
// kept (ErrCorrupt-wrapped, never a panic) and empties b, so later reads
// return zeros and a decoder checks once, in finish. What is decoded lands
// in two slabs allocated on first use — one immutable string holding a copy
// of the payload, which every decoded string sub-slices, and one []float64
// that every float slice and optional scalar is carved from — so a payload
// costs two allocations however many fields it carries, and nothing decoded
// aliases the caller's bytes. The error context (what) is a constant and is
// formatted on the failure path only.
type reader struct {
	b     []byte
	err   error
	block string    // copy of the payload from the first string on
	slab  []float64 // capacity bounds every float the rest of b can hold
}

func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	r.b = nil
}

// finish reports the walk's first failure, or trailing garbage: a payload
// must be consumed exactly.
func (r *reader) finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.failf("%d trailing bytes", len(r.b))
	}
	return r.err
}

func (r *reader) uvarint(what string) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.failf("%s", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a uvarint that may not exceed max.
func (r *reader) count(what string, max uint64) int {
	v := r.uvarint(what)
	if v > max {
		r.failf("%s %d", what, v)
		return 0
	}
	return int(v)
}

func (r *reader) varint(what string) int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.failf("%s", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// mark returns the current position as an offset into block, for since.
func (r *reader) mark() int {
	if r.block == "" {
		r.block = string(r.b)
	}
	return len(r.block) - len(r.b)
}

// since returns the bytes consumed after mark, as a sub-slice of block.
func (r *reader) since(mark int) string {
	return r.block[mark : len(r.block)-len(r.b)]
}

func (r *reader) str(what string) string {
	n, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.failf("%s length", what)
		return ""
	}
	r.b = r.b[k:]
	if n > maxStringLen || n > uint64(len(r.b)) {
		r.failf("%s length %d", what, n)
		return ""
	}
	if n == 0 {
		return ""
	}
	at := r.mark()
	r.b = r.b[n:]
	return r.since(at)
}

// take carves n floats off the slab. Callers have checked that n*8 bytes
// remain, which the slab's capacity was sized to.
func (r *reader) take(n int) []float64 {
	if r.slab == nil {
		r.slab = make([]float64, 0, len(r.b)/8)
	}
	k := len(r.slab)
	r.slab = r.slab[:k+n]
	return r.slab[k : k+n : k+n]
}

func (r *reader) f64(what string) float64 {
	if len(r.b) < 8 {
		r.failf("%s", what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// f64ptr decodes an optional scalar into the slab and points at it.
func (r *reader) f64ptr(what string) *float64 {
	if len(r.b) < 8 {
		r.failf("%s", what)
		return nil
	}
	out := r.take(1)
	out[0] = r.f64(what)
	return &out[0]
}

func (r *reader) floats(what string) []float64 {
	n, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.failf("%s count", what)
		return nil
	}
	r.b = r.b[k:]
	if n > uint64(len(r.b))/8 {
		r.failf("%s count %d", what, n)
		return nil
	}
	out := r.take(int(n))
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[i*8:]))
	}
	r.b = r.b[n*8:]
	return out
}

func (r *reader) byteVal(what string) byte {
	if len(r.b) == 0 {
		r.failf("%s", what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// ── primitive writers ──────────────────────────────────────────────────

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendFloats(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendF64(dst, v)
	}
	return dst
}

// ── Hello / HelloAck ───────────────────────────────────────────────────

// Hello is the FrameHello / FrameHelloAck payload: version plus a feature
// bitmask (the ack advertises what the server serves).
type Hello struct {
	Version  int
	Features uint64
}

// AppendHello renders h as a Hello/HelloAck payload.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	return binary.AppendUvarint(dst, h.Features)
}

// DecodeHello parses a Hello/HelloAck payload.
func DecodeHello(p []byte) (Hello, error) {
	r := reader{b: p}
	h := Hello{Version: r.count("hello version", math.MaxInt32), Features: r.uvarint("hello features")}
	return h, r.finish()
}

// ── Error frame ────────────────────────────────────────────────────────

// ErrorFrame is the FrameError payload: an HTTP-shaped status code, the
// stream sequence it refers to (0 = connection-level), and a message.
type ErrorFrame struct {
	Code    int
	Seq     uint64
	Message string
}

// AppendError renders e as a FrameError payload.
func AppendError(dst []byte, e ErrorFrame) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.Code))
	dst = binary.AppendUvarint(dst, e.Seq)
	return appendString(dst, e.Message)
}

// DecodeError parses a FrameError payload.
func DecodeError(p []byte) (ErrorFrame, error) {
	r := reader{b: p}
	e := ErrorFrame{Code: r.count("error code", 599), Seq: r.uvarint("error seq"), Message: r.str("error message")}
	return e, r.finish()
}

// ── PredictBatch ───────────────────────────────────────────────────────

// Per-request flag bits.
const (
	reqHasActual = 1 << 0
)

// AppendPredictBatch renders reqs as a FramePredictBatch payload. The
// requests decode back into the exact serve.Request structs the
// micro-batcher consumes — no intermediate representation, no re-marshal.
func AppendPredictBatch(dst []byte, reqs []*serve.Request) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(reqs)))
	for _, req := range reqs {
		dst = appendString(dst, req.RequestID)
		dst = appendString(dst, req.TraceParent)
		dst = appendString(dst, req.Testbed)
		dst = appendString(dst, req.SUT)
		dst = appendString(dst, req.Testcase)
		dst = appendString(dst, req.Build)
		dst = appendString(dst, req.ChainID)
		dst = appendFloats(dst, req.CF)
		dst = appendFloats(dst, req.Window)
		var flags byte
		if req.Actual != nil {
			flags |= reqHasActual
		}
		dst = append(dst, flags)
		if req.Actual != nil {
			dst = appendF64(dst, *req.Actual)
		}
	}
	return dst
}

// DecodePredictBatch parses a FramePredictBatch payload into per-frame
// slabs: the returned pointers index one []serve.Request, every CF, Window
// and Actual is carved from one []float64, and every string sub-slices one
// immutable copy of the payload — four allocations whatever the batch size.
// Nothing aliases p, so the caller may reuse it at once; the flip side is
// that any one string keeps the whole copy alive, so code that retains an
// id or an environment field past the request clones it.
func DecodePredictBatch(p []byte) ([]*serve.Request, error) {
	r := reader{b: p}
	n := r.count("batch count", MaxBatchItems)
	// A request is at least 10 bytes, so a count beyond the bytes left is
	// corrupt before it can size the slab.
	if r.err == nil && (n == 0 || n > len(r.b)) {
		r.failf("batch count %d", n)
		n = 0
	}
	slab := make([]serve.Request, n)
	reqs := make([]*serve.Request, n)
	for i := 0; i < n && r.err == nil; i++ {
		req := &slab[i]
		reqs[i] = req
		req.RequestID = r.str("request id")
		req.TraceParent = r.str("traceparent")
		req.Testbed = r.str("testbed")
		req.SUT = r.str("sut")
		req.Testcase = r.str("testcase")
		req.Build = r.str("build")
		req.ChainID = r.str("chain id")
		req.CF = r.floats("cf")
		req.Window = r.floats("window")
		if r.byteVal("request flags")&reqHasActual != 0 {
			req.Actual = r.f64ptr("actual")
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// ── PredictReplies ─────────────────────────────────────────────────────

// Per-reply flag bits.
const (
	replyHasAnomalous = 1 << 0
	replyAnomalous    = 1 << 1
	replyHasDeviation = 1 << 2
)

// Reply is one request's outcome within a batched exchange: either a
// served prediction (Status 200) or an HTTP-shaped error. A served reply
// also carries the server's stage span tree, so a front tier stitches wire
// responses into distributed traces exactly like JSON ones — but it carries
// it still encoded: the bytes were bounds-checked when the reply was
// decoded, AppendPredictReplies re-emits them verbatim, and only Spans
// turns them into a tree, for the few callers that keep a trace.
type Reply struct {
	RequestID    string
	Status       int
	Error        string // non-empty when Status is not 2xx
	Prediction   float64
	Model        string
	ModelVersion int
	BatchSize    int
	Anomalous    *bool
	Deviation    *float64

	spans string // validated span section, count included; "" = no spans
}

// Spans materialises the reply's span tree, the trace id restored from the
// request id. The result owns its memory (it does not keep the decoded
// frame alive), so a trace store may retain it.
func (rep *Reply) Spans() []obs.Span {
	if rep.spans == "" {
		return nil
	}
	r := reader{b: []byte(rep.spans)}
	spans, _ := r.spans(strings.Clone(rep.RequestID), true) // cannot fail: validated at decode
	return spans
}

// replyFromResult converts one serve outcome into a wire reply, without
// its spans: AppendResults renders those from the response's stage record
// straight into the frame rather than through a Reply.
func replyFromResult(id string, resp *serve.Response, code int, err error) Reply {
	rep := Reply{RequestID: id, Status: code}
	if err != nil || resp == nil {
		if err != nil {
			rep.Error = err.Error()
		} else {
			rep.Error = "serve: no response"
		}
		if rep.Status == 0 {
			rep.Status = 500
		}
		return rep
	}
	rep.Status = 200
	rep.Prediction = resp.Prediction
	rep.Model = resp.Model
	rep.ModelVersion = resp.ModelVersion
	rep.BatchSize = resp.BatchSize
	rep.Anomalous = resp.Anomalous
	rep.Deviation = resp.Deviation
	return rep
}

// appendReplyHead renders everything of rep that precedes its span section
// and reports whether one follows (only a served reply has one).
func appendReplyHead(dst []byte, rep *Reply) ([]byte, bool) {
	dst = appendString(dst, rep.RequestID)
	dst = binary.AppendUvarint(dst, uint64(rep.Status))
	if rep.Status != 200 {
		return appendString(dst, rep.Error), false
	}
	dst = appendF64(dst, rep.Prediction)
	dst = appendString(dst, rep.Model)
	dst = binary.AppendUvarint(dst, uint64(rep.ModelVersion))
	dst = binary.AppendUvarint(dst, uint64(rep.BatchSize))
	var flags byte
	if rep.Anomalous != nil {
		flags |= replyHasAnomalous
		if *rep.Anomalous {
			flags |= replyAnomalous
		}
	}
	if rep.Deviation != nil {
		flags |= replyHasDeviation
	}
	dst = append(dst, flags)
	if rep.Deviation != nil {
		dst = appendF64(dst, *rep.Deviation)
	}
	return dst, true
}

// AppendPredictReplies renders replies as a FramePredictReply payload.
func AppendPredictReplies(dst []byte, replies []Reply) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(replies)))
	for i := range replies {
		var served bool
		if dst, served = appendReplyHead(dst, &replies[i]); !served {
			continue
		}
		if replies[i].spans == "" {
			dst = append(dst, 0) // span count 0
		} else {
			dst = append(dst, replies[i].spans...)
		}
	}
	return dst
}

// AppendResults renders a DoBatch outcome as a FramePredictReply payload,
// reply i answering reqs[i]. It is AppendPredictReplies for the process
// that served the requests: it has no span tree to encode, only each
// response's stage record, and writes the span section from that.
func AppendResults(dst []byte, reqs []*serve.Request, results []serve.BatchResult) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	for i, res := range results {
		rep := replyFromResult(reqs[i].RequestID, res.Resp, res.Code, res.Err)
		var served bool
		if dst, served = appendReplyHead(dst, &rep); served {
			dst = appendStageSpans(dst, reqs[i].TraceParent, &res.Resp.Record)
		}
	}
	return dst
}

// appendStageSpans renders the span section of a request served as rec says,
// byte for byte what encoding the tree rec.Trace materialises would give
// (TestStageRecordRendersOneTree holds the two together) — three spans, ids
// derived from the record's seed, attributes in sorted key order, the trace
// id implied by the enclosing reply's request id — without building it.
func appendStageSpans(dst []byte, traceParent string, rec *serve.StageRecord) []byte {
	_, parent, _ := obs.ParseTraceParent(traceParent)
	var id [16]byte
	root := string(obs.AppendID(id[:0], rec.Seed)) // stays on the stack: the frame gets copies
	dst = append(dst, 3)
	dst = appendStageSpan(dst, rec.Seed, parent, "serve.request", rec.Enqueue, rec.ForwardEnd, 1)
	dst = appendString(appendString(dst, "outcome"), obs.OutcomeServed)
	dst = appendStageSpan(dst, rec.Seed+1, root, "serve.queue_wait", rec.Enqueue, rec.Pickup, 0)
	dst = appendStageSpan(dst, rec.Seed+2, root, "serve.forward", rec.Pickup, rec.ForwardEnd, 2)
	dst = appendNumberAttr(dst, "batch_id", rec.BatchID)
	return appendNumberAttr(dst, "batch_size", uint64(rec.BatchSize))
}

// appendStageSpan renders one span up to and including its attribute count;
// the caller appends that many attributes, keys ascending.
func appendStageSpan(dst []byte, id uint64, parent, name string, start, end time.Time, attrs byte) []byte {
	var hex [16]byte
	dst = appendString(dst, string(obs.AppendID(hex[:0], id)))
	dst = appendString(dst, parent)
	dst = appendString(dst, name)
	dst = binary.AppendVarint(dst, start.UnixMicro())
	dst = appendF64(dst, obs.MS(end.Sub(start)))
	return append(dst, attrs)
}

func appendNumberAttr(dst []byte, key string, v uint64) []byte {
	var num [20]byte
	dst = appendString(dst, key)
	return appendString(dst, string(strconv.AppendUint(num[:0], v, 10)))
}

// DecodePredictReplies parses a FramePredictReply payload into per-frame
// slabs like DecodePredictBatch. Span sections are bounds-checked here, by
// the same walk Reply.Spans later decodes them with, and kept as bytes.
func DecodePredictReplies(p []byte) ([]Reply, error) {
	r := reader{b: p}
	n := r.count("reply count", MaxBatchItems)
	if n > len(r.b) { // a reply is at least 3 bytes
		r.failf("reply count %d", n)
		n = 0
	}
	replies := make([]Reply, n)
	for i := 0; i < n && r.err == nil; i++ {
		rep := &replies[i]
		rep.RequestID = r.str("reply id")
		rep.Status = r.count("reply status", 599)
		if rep.Status != 200 {
			rep.Error = r.str("reply error")
			continue
		}
		rep.Prediction = r.f64("prediction")
		rep.Model = r.str("model")
		rep.ModelVersion = r.count("model version", math.MaxInt32)
		rep.BatchSize = r.count("batch size", MaxBatchItems)
		flags := r.byteVal("reply flags")
		if flags&replyHasAnomalous != 0 {
			a := flags&replyAnomalous != 0
			rep.Anomalous = &a
		}
		if flags&replyHasDeviation != 0 {
			rep.Deviation = r.f64ptr("deviation")
		}
		at := r.mark()
		if _, count := r.spans("", false); count > 0 {
			rep.spans = r.since(at)
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return replies, nil
}

// ── span encoding ──────────────────────────────────────────────────────

// spans walks one span section — the bounds checks of a decode and, with
// keep, also its result — and returns the section's span count alongside.
// DecodePredictReplies runs it without keep (no allocation, the section
// stays bytes) and Reply.Spans with it, so what was accepted at decode can
// never fail to materialise.
func (r *reader) spans(traceID string, keep bool) ([]obs.Span, int) {
	n := r.count("span count", maxSpans)
	var spans []obs.Span
	if keep {
		spans = make([]obs.Span, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		sp := obs.Span{
			TraceID: traceID, SpanID: r.str("span id"), ParentID: r.str("span parent"), Name: r.str("span name"),
			StartUnixUS: r.varint("span start"), DurationMS: r.f64("span duration"),
		}
		for j := r.count("span attr count", maxAttrs); j > 0 && r.err == nil; j-- {
			k, v := r.str("span attr key"), r.str("span attr value")
			if keep {
				sp.SetAttr(k, v)
			}
		}
		if keep {
			spans = append(spans, sp)
		}
	}
	return spans, n
}

// ── Subscribe / SubscribeAck ───────────────────────────────────────────

// Subscribe is the FrameSubscribe payload: the environment tuple this
// connection streams for, plus the optional anomaly chain id.
type Subscribe struct {
	Env     envmeta.Environment
	ChainID string
}

// AppendSubscribe renders s as a FrameSubscribe payload.
func AppendSubscribe(dst []byte, s Subscribe) []byte {
	dst = appendString(dst, s.Env.Testbed)
	dst = appendString(dst, s.Env.SUT)
	dst = appendString(dst, s.Env.Testcase)
	dst = appendString(dst, s.Env.Build)
	return appendString(dst, s.ChainID)
}

// DecodeSubscribe parses a FrameSubscribe payload.
func DecodeSubscribe(p []byte) (Subscribe, error) {
	r := reader{b: p}
	var s Subscribe
	s.Env.Testbed = r.str("testbed")
	s.Env.SUT = r.str("sut")
	s.Env.Testcase = r.str("testcase")
	s.Env.Build = r.str("build")
	s.ChainID = r.str("chain id")
	return s, r.finish()
}

// SubscribeAck is the FrameSubscribeAck payload: the served model's
// identity and input shape, so the subscriber can size its windows without
// a side-channel /statz call.
type SubscribeAck struct {
	Model   string
	Version int
	In      int
	Window  int
}

// AppendSubscribeAck renders a as a FrameSubscribeAck payload.
func AppendSubscribeAck(dst []byte, a SubscribeAck) []byte {
	dst = appendString(dst, a.Model)
	dst = binary.AppendUvarint(dst, uint64(a.Version))
	dst = binary.AppendUvarint(dst, uint64(a.In))
	return binary.AppendUvarint(dst, uint64(a.Window))
}

// DecodeSubscribeAck parses a FrameSubscribeAck payload.
func DecodeSubscribeAck(p []byte) (SubscribeAck, error) {
	r := reader{b: p}
	a := SubscribeAck{
		Model: r.str("model"), Version: r.count("version", math.MaxInt32),
		In: r.count("in", math.MaxInt32), Window: r.count("window", math.MaxInt32),
	}
	return a, r.finish()
}

// ── Window / Prediction (stream mode) ──────────────────────────────────

// Window is one streamed timestep: the client's next observation window
// (and contextual features) for the subscribed environment. Seq correlates
// the prediction that answers it; predictions may return out of order when
// windows are pipelined.
type Window struct {
	Seq       uint64
	RequestID string
	CF        []float64
	Window    []float64
	Actual    *float64
}

// AppendWindow renders w as a FrameWindow payload.
func AppendWindow(dst []byte, w Window) []byte {
	dst = binary.AppendUvarint(dst, w.Seq)
	dst = appendString(dst, w.RequestID)
	dst = appendFloats(dst, w.CF)
	dst = appendFloats(dst, w.Window)
	var flags byte
	if w.Actual != nil {
		flags |= reqHasActual
	}
	dst = append(dst, flags)
	if w.Actual != nil {
		dst = appendF64(dst, *w.Actual)
	}
	return dst
}

// DecodeWindow parses a FrameWindow payload.
func DecodeWindow(p []byte) (Window, error) {
	r := reader{b: p}
	w := Window{
		Seq: r.uvarint("window seq"), RequestID: r.str("window request id"),
		CF: r.floats("window cf"), Window: r.floats("window values"),
	}
	if r.byteVal("window flags")&reqHasActual != 0 {
		w.Actual = r.f64ptr("window actual")
	}
	return w, r.finish()
}

// Prediction is one streamed answer, correlated to its Window by Seq.
type Prediction struct {
	Seq          uint64
	Status       int
	Error        string // non-empty when Status is not 200
	Value        float64
	ModelVersion int
	Anomalous    *bool
	Deviation    *float64
}

// AppendPrediction renders p as a FramePrediction payload.
func AppendPrediction(dst []byte, p Prediction) []byte {
	dst = binary.AppendUvarint(dst, p.Seq)
	dst = binary.AppendUvarint(dst, uint64(p.Status))
	if p.Status != 200 {
		return appendString(dst, p.Error)
	}
	dst = appendF64(dst, p.Value)
	dst = binary.AppendUvarint(dst, uint64(p.ModelVersion))
	var flags byte
	if p.Anomalous != nil {
		flags |= replyHasAnomalous
		if *p.Anomalous {
			flags |= replyAnomalous
		}
	}
	if p.Deviation != nil {
		flags |= replyHasDeviation
	}
	dst = append(dst, flags)
	if p.Deviation != nil {
		dst = appendF64(dst, *p.Deviation)
	}
	return dst
}

// DecodePrediction parses a FramePrediction payload.
func DecodePrediction(b []byte) (Prediction, error) {
	r := reader{b: b}
	p := Prediction{Seq: r.uvarint("prediction seq"), Status: r.count("prediction status", 599)}
	if p.Status != 200 {
		p.Error = r.str("prediction error")
		return p, r.finish()
	}
	p.Value = r.f64("prediction value")
	p.ModelVersion = r.count("prediction model version", math.MaxInt32)
	flags := r.byteVal("prediction flags")
	if flags&replyHasAnomalous != 0 {
		a := flags&replyAnomalous != 0
		p.Anomalous = &a
	}
	if flags&replyHasDeviation != 0 {
		p.Deviation = r.f64ptr("prediction deviation")
	}
	return p, r.finish()
}
