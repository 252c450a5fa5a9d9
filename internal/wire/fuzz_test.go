package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"env2vec/internal/obs"
	"env2vec/internal/serve"
)

// decodeErrs are the only errors the decoders are allowed to return: every
// failure must be typed, never a panic and never an unwrapped fmt error.
var decodeErrs = []error{ErrBadMagic, ErrBadCRC, ErrTooLarge, ErrTruncated, ErrCorrupt, ErrVersion}

func isTyped(err error) bool {
	for _, sentinel := range decodeErrs {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// corruptSpanReplies are reply payloads whose only defect is the span
// section: too many attributes, an id running past the payload, too many
// spans. The reply decoder keeps spans as bytes, so it is the decoder that
// must refuse them, not a later Reply.Spans.
func corruptSpanReplies() [][]byte {
	head := AppendPredictReplies(nil, []Reply{{RequestID: "0123456789abcdef", Status: 200, Model: "m"}})
	head = head[:len(head)-1] // drop the span count
	with := func(section ...byte) []byte { return append(append([]byte(nil), head...), section...) }
	badAttrs := appendF64(with(1, 0, 0, 0, 0), 1.5) // one span: empty id, parent, name; start 0
	return [][]byte{
		append(badAttrs, obs.MaxSpanAttrs+1),
		with(1, 16, 'a', 'b'),
		binary.AppendUvarint(with(), obs.MaxSectionSpans+1),
	}
}

func TestCorruptSpanSectionRejectedAtDecode(t *testing.T) {
	for i, payload := range corruptSpanReplies() {
		if _, err := DecodePredictReplies(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("corrupt span section %d: decode returned %v, want ErrCorrupt", i, err)
		}
	}
}

// FuzzWireDecode throws arbitrary bytes at the frame reader and every
// payload decoder. Truncated, bit-flipped, oversized, and interleaved
// frames must come back as typed errors — a panic or an untyped error
// fails the run. The proxy's relay is held to the decoders on the same
// bytes, each frame's payload and the raw input alike: a scan accepts what
// its decoder accepts and re-renders what it scanned, and the span sections
// it passes on decode as they did; and the trace store's codec round-trips
// the spans the input spells.
func FuzzWireDecode(f *testing.F) {
	// Seed corpus: valid frames of every type, concatenations, and a few
	// deliberately broken variants so the fuzzer starts near the
	// interesting boundaries.
	actual := 51.5
	reqs := []*serve.Request{{
		CF: []float64{1, 2, 3}, Window: []float64{4, 5},
		Testbed: "tb", SUT: "s", Testcase: "tc", Build: "b",
		ChainID: "c", Actual: &actual, RequestID: "0123456789abcdef",
	}}
	anom := true
	replies := []Reply{{
		RequestID: "0123456789abcdef", Status: 200, Prediction: 49.5,
		Model: "m", ModelVersion: 2, BatchSize: 4, Anomalous: &anom,
	}}
	replies[0].setSpans([]obs.Span{{TraceID: "0123456789abcdef", SpanID: "aa", Name: "serve.request"}})
	seeds := [][]byte{
		AppendFrame(nil, FrameHello, AppendHello(nil, Hello{Version: 1, Features: 3})),
		AppendFrame(nil, FramePredictBatch, AppendPredictBatch(nil, reqs)),
		AppendFrame(nil, FramePredictReply, AppendPredictReplies(nil, replies)),
		AppendFrame(nil, FrameSubscribe, AppendSubscribe(nil, Subscribe{Env: testEnv, ChainID: "c1"})),
		AppendFrame(nil, FrameSubscribeAck, AppendSubscribeAck(nil, SubscribeAck{Model: "m", Version: 1, In: 6, Window: 20})),
		AppendFrame(nil, FrameWindow, AppendWindow(nil, Window{Seq: 1, CF: []float64{1}, Window: []float64{2}})),
		AppendFrame(nil, FramePrediction, AppendPrediction(nil, Prediction{Seq: 1, Status: 200, Value: 3.5})),
		AppendFrame(nil, FrameError, AppendError(nil, ErrorFrame{Code: 429, Seq: 7, Message: "shed"})),
		{},
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for _, payload := range corruptSpanReplies() {
		seeds = append(seeds, AppendFrame(nil, FramePredictReply, payload))
	}
	// Interleaved frames and a torn tail.
	multi := append(append([]byte(nil), seeds[1]...), seeds[6]...)
	seeds = append(seeds, multi, multi[:len(multi)-3])
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatchScan(t, data)
		checkReplyScan(t, data)
		checkStoredSpans(t, data)
		const maxPayload = 1 << 20
		// Walk the bytes frame by frame with the reader the servers run, its
		// read buffer reused as theirs is; io.EOF only on a clean boundary.
		br := bufio.NewReader(bytes.NewReader(data))
		var rbuf []byte
		for i := 0; i < 64; i++ {
			fr, err := ReadFrame(br, maxPayload, &rbuf)
			if err != nil {
				if err != io.EOF && !isTyped(err) {
					t.Fatalf("untyped frame error: %v", err)
				}
				break
			}
			// Every payload decoder must hold against a CRC-valid but
			// adversarial payload too (the fuzzer can forge checksums).
			var perr error
			switch fr.Type {
			case FrameHello, FrameHelloAck:
				_, perr = DecodeHello(fr.Payload)
			case FramePredictBatch:
				perr = checkBatchScan(t, fr.Payload)
			case FramePredictReply:
				perr = checkReplyScan(t, fr.Payload)
			case FrameSubscribe:
				_, perr = DecodeSubscribe(fr.Payload)
			case FrameSubscribeAck:
				_, perr = DecodeSubscribeAck(fr.Payload)
			case FrameWindow:
				_, perr = DecodeWindow(fr.Payload)
			case FramePrediction:
				_, perr = DecodePrediction(fr.Payload)
			case FrameError:
				_, perr = DecodeError(fr.Payload)
			}
			if perr != nil && !isTyped(perr) {
				t.Fatalf("untyped payload error for frame 0x%02x: %v", fr.Type, perr)
			}
		}
	})
}

// checkBatchScan holds ScanPredictBatch to DecodePredictBatch on one payload
// and returns the decoder's verdict: both accept it or both refuse it; what
// was scanned is what was decoded, and re-rendered with each request's own
// id and traceparent it is the payload, byte for byte; stamped onto a span,
// it decodes to the same requests under the stamped traceparents.
func checkBatchScan(t *testing.T, p []byte) error {
	t.Helper()
	reqs, err := DecodePredictBatch(p)
	views, serr := ScanPredictBatch(nil, p)
	if (err == nil) != (serr == nil) || (serr != nil && !isTyped(serr)) {
		t.Fatalf("batch payload: decode says %v, scan says %v", err, serr)
	}
	if err != nil {
		return err
	}
	if len(views) != len(reqs) {
		t.Fatalf("batch payload: %d requests decoded, %d scanned", len(reqs), len(views))
	}
	for i, v := range views {
		r := reqs[i]
		if string(v.ID) != r.RequestID || string(v.TraceParent) != r.TraceParent || string(v.Testbed) != r.Testbed ||
			string(v.SUT) != r.SUT || string(v.Testcase) != r.Testcase || string(v.Build) != r.Build {
			t.Fatalf("request %d scanned as %q %q %q %q %q %q, decoded as %+v", i, v.ID, v.TraceParent, v.Testbed, v.SUT, v.Testcase, v.Build, r)
		}
	}
	if again := AppendScannedRequests(nil, views, ""); !bytes.Equal(again, p) {
		t.Fatalf("scanned batch re-renders as\n%x\nnot\n%x", again, p)
	}
	stamped, err := DecodePredictBatch(AppendScannedRequests(nil, views, "00000000000000aa"))
	if err != nil || len(stamped) != len(reqs) {
		t.Fatalf("stamped batch does not decode: %v", err)
	}
	for i, r := range stamped {
		want := *reqs[i]
		want.TraceParent = obs.FormatTraceParent(want.RequestID, "00000000000000aa")
		if !sameRequest(r, &want) {
			t.Fatalf("stamped request %d decodes as %+v, want %+v", i, *r, want)
		}
	}
	return nil
}

// sameRequest is reflect.DeepEqual with floats compared by their bits, so a
// NaN equals itself.
func sameRequest(a, b *serve.Request) bool {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if (a.Actual == nil) != (b.Actual == nil) || (a.Actual != nil && math.Float64bits(*a.Actual) != math.Float64bits(*b.Actual)) ||
		!reflect.DeepEqual(bits(a.CF), bits(b.CF)) || !reflect.DeepEqual(bits(a.Window), bits(b.Window)) {
		return false
	}
	x, y := *a, *b
	x.CF, x.Window, x.Actual, y.CF, y.Window, y.Actual = nil, nil, nil, nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// checkReplyScan holds ScanPredictReplies to DecodePredictReplies on one
// payload and returns the decoder's verdict: both accept it or both refuse
// it; the scanned replies tile the payload after its count; and each span
// section decodes through obs's codec to as many spans as the scan counted,
// to the spans the decoded reply materialises and to what the walk obs's
// codec replaced decodes it to.
func checkReplyScan(t *testing.T, p []byte) error {
	t.Helper()
	replies, err := DecodePredictReplies(p)
	views, serr := ScanPredictReplies(nil, p)
	if (err == nil) != (serr == nil) || (serr != nil && !isTyped(serr)) {
		t.Fatalf("reply payload: decode says %v, scan says %v", err, serr)
	}
	if err != nil {
		return err
	}
	if len(views) != len(replies) {
		t.Fatalf("reply payload: %d replies decoded, %d scanned", len(replies), len(views))
	}
	_, head := binary.Uvarint(p)
	tiled := append([]byte(nil), p[:head]...)
	for i, v := range views {
		rep := &replies[i]
		tiled = append(tiled, v.Reply...)
		if string(v.ID) != rep.RequestID || v.Status != rep.Status || string(v.Spans) != rep.spans {
			t.Fatalf("reply %d scanned as %q %d spans %x, decoded as %+v spans %x", i, v.ID, v.Status, v.Spans, *rep, rep.spans)
		}
		if v.Spans == nil {
			continue
		}
		spans, err := obs.DecodeSpans(string(obs.AppendSpanGroup(nil, v.ID)) + string(v.Spans))
		ref, rerr := refSpans(string(v.Spans), string(v.ID))
		if err != nil || rerr != nil || !sameSpans(spans, ref) || !sameSpans(spans, rep.Spans()) || v.SpanCount != len(spans) {
			t.Fatalf("reply %d: the section decodes to\n %+v (%v)\nthe reference walk to\n %+v (%v)\nReply.Spans to\n %+v\nthe scan counts %d", i, spans, err, ref, rerr, rep.Spans(), v.SpanCount)
		}
	}
	if !bytes.Equal(tiled, p) || !bytes.Equal(AppendScannedReplies(nil, views), p) {
		t.Fatalf("scanned replies do not tile the payload:\n%x\n%x", tiled, p)
	}
	return nil
}

// refSpans is the span-section walk the reply decoder ran before obs owned
// the codec (binary.Uvarint and friends over the section): the reference
// obs.DecodeSpans is held to on a section that the scan accepted. It wants
// the section consumed exactly.
func refSpans(section, traceID string) ([]obs.Span, error) {
	b := []byte(section)
	bad := errors.New("reference: corrupt")
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	str := func() (string, bool) {
		n, ok := uv()
		if !ok || n > 64<<10 || n > uint64(len(b)) {
			return "", false
		}
		s := string(b[:n])
		b = b[n:]
		return s, true
	}
	n, ok := uv()
	if !ok || n > obs.MaxSectionSpans {
		return nil, bad
	}
	var spans []obs.Span
	for i := uint64(0); i < n; i++ {
		sp := obs.Span{TraceID: traceID}
		var ok1, ok2, ok3 bool
		sp.SpanID, ok1 = str()
		sp.ParentID, ok2 = str()
		sp.Name, ok3 = str()
		if !ok1 || !ok2 || !ok3 {
			return nil, bad
		}
		start, k := binary.Varint(b)
		if k <= 0 || len(b[k:]) < 8 {
			return nil, bad
		}
		sp.StartUnixUS = start
		sp.DurationMS = math.Float64frombits(binary.LittleEndian.Uint64(b[k:]))
		b = b[k+8:]
		attrs, ok := uv()
		if !ok || attrs > obs.MaxSpanAttrs {
			return nil, bad
		}
		for j := uint64(0); j < attrs; j++ {
			k, ok1 := str()
			v, ok2 := str()
			if !ok1 || !ok2 {
				return nil, bad
			}
			sp.SetAttr(k, v)
		}
		spans = append(spans, sp)
	}
	if len(b) != 0 {
		return nil, bad
	}
	return spans, nil
}

// sameSpans is reflect.DeepEqual with durations compared by their bits, so
// a NaN equals itself.
func sameSpans(a, b []obs.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.DurationMS) != math.Float64bits(y.DurationMS) {
			return false
		}
		x.DurationMS, y.DurationMS = 0, 0
		if len(x.Attrs) == 0 && len(y.Attrs) == 0 {
			x.Attrs, y.Attrs = nil, nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// checkStoredSpans spells a span list out of data — trace ids from a few,
// so runs of one id form groups; any start, any duration bits, up to three
// attributes from a small key set — and holds the trace store's codec to
// it: the stored form decodes to the list, every group's section is what
// the sorted-key reference encoder writes, and one list has one encoding.
func checkStoredSpans(t *testing.T, data []byte) {
	t.Helper()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	word := func() uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(next())
		}
		return v
	}
	str := func() string {
		n := int(next() % 8)
		if n > len(data) {
			n = len(data)
		}
		s := string(data[:n])
		data = data[n:]
		return s
	}
	var spans []obs.Span
	for n := next() % 6; n > 0; n-- {
		sp := obs.Span{
			TraceID: []string{"", "0123456789abcdef", "fedcba9876543210"}[next()%3],
			SpanID:  str(), ParentID: str(), Name: str(),
			StartUnixUS: int64(word()), DurationMS: math.Float64frombits(word()),
		}
		for a := next() % 4; a > 0; a-- {
			sp.SetAttr([]string{"outcome", "batch_id", "error", ""}[next()%4], str())
		}
		spans = append(spans, sp)
	}
	stored := obs.AppendSpans(nil, spans)
	got, err := obs.DecodeSpans(string(stored))
	if err != nil || !sameSpans(got, spans) {
		t.Fatalf("stored spans decode to\n %+v (%v)\nwant\n %+v", got, err, spans)
	}
	if again := obs.AppendSpans(nil, got); !bytes.Equal(again, stored) {
		t.Fatalf("decoded spans re-encode as\n%x\nnot\n%x", again, stored)
	}
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].TraceID == spans[i].TraceID {
			j++
		}
		if sec, ref := obs.AppendSpanSection(nil, spans[i:j]), appendSpans(nil, spans[i:j]); !bytes.Equal(sec, ref) {
			t.Fatalf("spans %d–%d encode as\n%x\nthe sorted-key reference as\n%x", i, j, sec, ref)
		}
		i = j
	}
}
