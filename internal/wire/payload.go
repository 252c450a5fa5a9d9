package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"env2vec/internal/envmeta"
	"env2vec/internal/obs"
	"env2vec/internal/serve"
)

// maxStringLen bounds ids, names and error messages. Everything a decoder
// allocates is bounded up front, so a corrupt or hostile length can cost at
// most the frame it arrived in; span sections are bounded by obs's codec.
const maxStringLen = 64 << 10

// ── primitive readers ──────────────────────────────────────────────────

// reader walks a payload with bounds-checked reads. The first failure is
// kept (ErrCorrupt-wrapped, never a panic) and empties b, so later reads
// return zeros and a decoder checks once, in finish. A uvarint must be in its
// one shortest encoding, so what a scan re-renders of a payload (the proxy's
// relay) is the payload. What is decoded lands in two slabs allocated on
// first use — one immutable string holding a copy of the payload, which
// every decoded string sub-slices, and one []float64 that every float slice
// and optional scalar is carved from — so a payload costs two allocations
// however many fields it carries, and nothing decoded aliases the caller's
// bytes. A scanning reader makes the same walk and checks but decodes
// nothing: it reads views into the payload (text, spanSection) and allocates
// nothing. The error context (what) is a constant and is formatted on the
// failure path only.
type reader struct {
	b     []byte
	err   error
	scan  bool      // check and view only: no string, float or pointer is decoded
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

// uvarint is binary.Uvarint refusing an overlong encoding: one whose last
// byte is a zero after a continuation byte.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

func (r *reader) uvarint(what string) uint64 {
	v, n := uvarint(r.b)
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

// mark returns the current position as an offset into block.
func (r *reader) mark() int {
	if r.block == "" {
		r.block = string(r.b)
	}
	return len(r.block) - len(r.b)
}

// strLen consumes a string's length prefix and returns the length, checked
// against the bytes left; what the string is read as is the caller's.
func (r *reader) strLen(what string) int {
	n, k := uvarint(r.b)
	if k <= 0 {
		r.failf("%s length", what)
		return 0
	}
	r.b = r.b[k:]
	if n > maxStringLen || n > uint64(len(r.b)) {
		r.failf("%s length %d", what, n)
		return 0
	}
	return int(n)
}

// text reads a string as a view into the payload and, unless the reader
// scans, as a sub-slice of block.
func (r *reader) text(what string) ([]byte, string) {
	n := r.strLen(what)
	v, s := r.b[:n:n], ""
	if n > 0 && !r.scan {
		at := r.mark()
		s = r.block[at : at+n]
	}
	r.b = r.b[n:]
	return v, s
}

func (r *reader) str(what string) string {
	_, s := r.text(what)
	return s
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

// f64ptr decodes an optional scalar into the slab and points at it; a
// scanning reader skips it and returns nil.
func (r *reader) f64ptr(what string) *float64 {
	if len(r.b) < 8 || r.scan {
		r.f64(what)
		return nil
	}
	out := r.take(1)
	out[0] = r.f64(what)
	return &out[0]
}

// floatCount consumes a float slice's count and returns it, checked against
// the bytes left.
func (r *reader) floatCount(what string) int {
	n, k := uvarint(r.b)
	if k <= 0 {
		r.failf("%s count", what)
		return 0
	}
	r.b = r.b[k:]
	if n > uint64(len(r.b))/8 {
		r.failf("%s count %d", what, n)
		return 0
	}
	return int(n)
}

// floats decodes a float slice off the slab; a scanning reader skips it
// and returns nil.
func (r *reader) floats(what string) []float64 {
	n := r.floatCount(what)
	if r.err != nil || r.scan {
		r.b = r.b[8*n:]
		return nil
	}
	out := r.take(n)
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

// spanSection consumes the span section at the head of the rest, checked by
// obs's codec, and returns it as a view and, unless the reader scans, as a
// sub-slice of block, with its span count; both are empty when it holds no
// span.
func (r *reader) spanSection() ([]byte, string, int) {
	n, spans, err := obs.SpanSectionLen(r.b)
	if err != nil {
		r.failf("%v", err)
		return nil, "", 0
	}
	if spans == 0 {
		r.b = r.b[n:]
		return nil, "", 0
	}
	sec, s := r.b[:n:n], ""
	if !r.scan {
		at := r.mark()
		s = r.block[at : at+n]
	}
	r.b = r.b[n:]
	return sec, s, spans
}

// ── primitive writers ──────────────────────────────────────────────────

func appendString[T ~string | ~[]byte](dst []byte, s T) []byte {
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

// The shortest encodings: a request of empty strings and float slices, no
// actual (seven string lengths, two float counts, flags), and an error
// reply with an empty id and message (id length, status, message length).
const (
	minRequestLen = 10
	minReplyLen   = 3
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
	n := r.batchCount()
	slab := make([]serve.Request, n)
	reqs := make([]*serve.Request, n)
	for i := 0; i < n && r.err == nil; i++ {
		reqs[i] = &slab[i]
		r.request(reqs[i])
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// batchCount reads a FramePredictBatch payload's request count. A request
// is at least minRequestLen bytes, so a count beyond what the bytes left can
// hold is corrupt before it can size anything.
func (r *reader) batchCount() int {
	n := r.count("batch count", MaxBatchItems)
	if r.err == nil && (n == 0 || n > len(r.b)/minRequestLen) {
		r.failf("batch count %d", n)
		n = 0
	}
	return n
}

// request walks one request of a FramePredictBatch payload — the one walk
// both DecodePredictBatch and ScanPredictBatch make, so they accept the same
// payloads by construction — and returns its view; unless the reader scans,
// it decodes the request into req too.
func (r *reader) request(req *serve.Request) RequestView {
	var v RequestView
	v.ID, req.RequestID = r.text("request id")
	v.TraceParent, req.TraceParent = r.text("traceparent")
	rest := r.b
	v.Testbed, req.Testbed = r.text("testbed")
	v.SUT, req.SUT = r.text("sut")
	v.Testcase, req.Testcase = r.text("testcase")
	v.Build, req.Build = r.text("build")
	req.ChainID = r.str("chain id")
	req.CF = r.floats("cf")
	req.Window = r.floats("window")
	if r.byteVal("request flags")&reqHasActual != 0 {
		req.Actual = r.f64ptr("actual")
	}
	v.Rest = rest[: len(rest)-len(r.b) : len(rest)-len(r.b)]
	return v
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
			dst = res.Resp.Record.AppendSpanSection(dst, reqs[i].TraceParent)
		}
	}
	return dst
}

// DecodePredictReplies parses a FramePredictReply payload into per-frame
// slabs like DecodePredictBatch. Span sections are bounds-checked here, by
// obs's codec (obs.SpanSectionLen), and kept as bytes.
func DecodePredictReplies(p []byte) ([]Reply, error) {
	r := reader{b: p}
	n := r.replyCount()
	replies := make([]Reply, n)
	for i := 0; i < n && r.err == nil; i++ {
		r.reply(&replies[i])
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return replies, nil
}

// replyCount reads a FramePredictReply payload's reply count, held to what
// the bytes left can hold like batchCount's.
func (r *reader) replyCount() int {
	n := r.count("reply count", MaxBatchItems)
	if n > len(r.b)/minReplyLen {
		r.failf("reply count %d", n)
		n = 0
	}
	return n
}

// reply walks one reply of a FramePredictReply payload — the one walk of
// DecodePredictReplies and ScanPredictReplies — and returns its view;
// unless the reader scans, it decodes the reply into rep too.
func (r *reader) reply(rep *Reply) ReplyView {
	start := r.b
	var v ReplyView
	v.ID, rep.RequestID = r.text("reply id")
	v.Status = r.count("reply status", 599)
	rep.Status = v.Status
	if v.Status != 200 {
		rep.Error = r.str("reply error")
	} else {
		rep.Prediction = r.f64("prediction")
		rep.Model = r.str("model")
		rep.ModelVersion = r.count("model version", math.MaxInt32)
		rep.BatchSize = r.count("batch size", MaxBatchItems)
		flags := r.byteVal("reply flags")
		if flags&replyHasAnomalous != 0 && !r.scan {
			a := flags&replyAnomalous != 0
			rep.Anomalous = &a
		}
		if flags&replyHasDeviation != 0 {
			rep.Deviation = r.f64ptr("deviation")
		}
		v.Spans, rep.spans, v.SpanCount = r.spanSection()
	}
	v.Reply = start[: len(start)-len(r.b) : len(start)-len(r.b)]
	return v
}

// ── relay: scanned batches and replies ─────────────────────────────────

// RequestView is one request of a FramePredictBatch payload as
// ScanPredictBatch found it: views into the payload, valid while its bytes
// are. What the proxy routes by and rewrites is picked out; the rest travels
// on as it came.
type RequestView struct {
	ID, TraceParent               []byte
	Testbed, SUT, Testcase, Build []byte
	// Rest is the request from its testbed to its end.
	Rest []byte
}

// ScanPredictBatch walks a FramePredictBatch payload as DecodePredictBatch
// does — the same walk, so the same count, string-length and float-count
// bounds, the same flags, no trailing bytes — and appends a view of each
// request to dst. It decodes no float and copies nothing. It accepts exactly
// the payloads DecodePredictBatch accepts.
func ScanPredictBatch(dst []RequestView, p []byte) ([]RequestView, error) {
	base := len(dst)
	r := reader{b: p, scan: true}
	n := r.batchCount()
	var req serve.Request // a scan decodes nothing into it
	for i := 0; i < n && r.err == nil; i++ {
		dst = append(dst, r.request(&req))
	}
	if err := r.finish(); err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// AppendScannedRequests renders reqs as a FramePredictBatch payload: each
// request's ID, then its traceparent — its own when parentSpanID is empty,
// else one naming the span parentSpanID in the request's trace — then its
// Rest verbatim.
func AppendScannedRequests(dst []byte, reqs []RequestView, parentSpanID string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(reqs)))
	var tp [64]byte
	for i := range reqs {
		v := &reqs[i]
		dst = appendString(dst, v.ID)
		if parentSpanID == "" {
			dst = appendString(dst, v.TraceParent)
		} else {
			dst = appendString(dst, obs.AppendTraceParent(tp[:0], v.ID, parentSpanID))
		}
		dst = append(dst, v.Rest...)
	}
	return dst
}

// ReplyView is one reply of a FramePredictReply payload as
// ScanPredictReplies found it: views into the payload, valid while its
// bytes are.
type ReplyView struct {
	ID     []byte
	Status int
	// Reply is the whole reply, its id to its end.
	Reply []byte
	// Spans is the reply's span section, SpanCount the spans in it; nil
	// and 0 when it carries no span.
	Spans     []byte
	SpanCount int
}

// ScanPredictReplies walks a FramePredictReply payload as
// DecodePredictReplies does, span sections included, and appends a view of
// each reply to dst. The Reply ranges tile the payload after its count. It
// accepts exactly the payloads DecodePredictReplies accepts.
func ScanPredictReplies(dst []ReplyView, p []byte) ([]ReplyView, error) {
	base := len(dst)
	r := reader{b: p, scan: true}
	n := r.replyCount()
	var rep Reply // a scan decodes nothing into it
	for i := 0; i < n && r.err == nil; i++ {
		dst = append(dst, r.reply(&rep))
	}
	if err := r.finish(); err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// AppendScannedReplies renders replies as a FramePredictReply payload, each
// reply's bytes verbatim.
func AppendScannedReplies(dst []byte, replies []ReplyView) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(replies)))
	for i := range replies {
		dst = append(dst, replies[i].Reply...)
	}
	return dst
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
