package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
		append(badAttrs, maxAttrs+1),
		with(1, 16, 'a', 'b'),
		binary.AppendUvarint(with(), maxSpans+1),
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
// fails the run.
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
				_, perr = DecodePredictBatch(fr.Payload)
			case FramePredictReply:
				var replies []Reply
				replies, perr = DecodePredictReplies(fr.Payload)
				// What the decoder accepted must materialise: the lazy
				// accessor re-walks the section and may not fail.
				for i := range replies {
					if replies[i].spans == "" {
						continue
					}
					r := reader{b: []byte(replies[i].spans)}
					spans, n := r.spans(replies[i].RequestID, true)
					if err := r.finish(); err != nil || len(spans) != n || len(replies[i].Spans()) != n {
						t.Fatalf("reply %d: span section accepted at decode fails to materialise: %v", i, err)
					}
				}
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
