package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/obs"
	"env2vec/internal/quality"
	"env2vec/internal/serve"
)

// The golden frames are protocol v1 as the parent commit's encoder wrote
// it (its map-ordered span attributes happening to come out sorted): a
// peer built before the slab decoder and the byte-relayed spans must read
// what this code writes and the reverse, bit for bit.
const goldenBatchHex = "453256571000000000d2813766fb0210303132333435363738396162636465660003746231026677046c6f6164024231" +
	"0003000000000000d03f000000000000f8bf0000000000000840020000000000c0484000000000006049400010666564" +
	"636261393837363534333231302730302d666564636261393837363534333231302d3030303030303030303030303030" +
	"61612d3031037462320365706304736f616b02423707636861696e2d3703000000000000f03f00000000000000400000" +
	"0000000010400200000000000048400000000000104a40010000000000c04940"

const goldenReplyHex = "453256571100000001850a9f92e3031030313233343536373839616263646566c8010000000000e0484007656e763276" +
	"6563072007000000000000f43f0310313131313131313131313131313131311030303030303030303030303030306161" +
	"0d73657276652e726571756573748080f28183898506000000000000e83f01076f7574636f6d65067365727665641032" +
	"32323232323232323232323232323210313131313131313131313131313131311073657276652e71756575655f776169" +
	"748080f28183898506000000000000d03f00103333333333333333333333333333333310313131313131313131313131" +
	"313131310d73657276652e666f7277617264f483f28183898506000000000000e03f040862617463685f696401390a62" +
	"617463685f73697a6502333209707265636973696f6e07666c6f6174333206776f726b65720130106665646362613938" +
	"3736353433323130ad031173657276653a2071756575652066756c6c1030303030303030303030303030306666c80100" +
	"00000000000cc007656e763276656307200000"

// goldenBatch and goldenReplies are the values behind the committed
// golden frames.
func goldenBatch() []*serve.Request {
	actual := 51.5
	return []*serve.Request{
		{
			CF: []float64{0.25, -1.5, 3}, Window: []float64{49.5, 50.75},
			Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1",
			RequestID: "0123456789abcdef",
		},
		{
			CF: []float64{1, 2, 4}, Window: []float64{48, 52.125},
			Testbed: "tb2", SUT: "epc", Testcase: "soak", Build: "B7",
			ChainID: "chain-7", Actual: &actual,
			RequestID:   "fedcba9876543210",
			TraceParent: "00-fedcba9876543210-00000000000000aa-01",
		},
	}
}

func goldenSpans(id string) []obs.Span {
	return []obs.Span{
		{TraceID: id, SpanID: "1111111111111111", ParentID: "00000000000000aa", Name: "serve.request",
			StartUnixUS: 1700000000000000, DurationMS: 0.75, Attrs: map[string]string{"outcome": "served"}},
		{TraceID: id, SpanID: "2222222222222222", ParentID: "1111111111111111", Name: "serve.queue_wait",
			StartUnixUS: 1700000000000000, DurationMS: 0.25},
		{TraceID: id, SpanID: "3333333333333333", ParentID: "1111111111111111", Name: "serve.forward",
			StartUnixUS: 1700000000000250, DurationMS: 0.5,
			Attrs: map[string]string{"batch_id": "9", "batch_size": "32", "precision": "float32", "worker": "0"}},
	}
}

// appendSpans renders a span tree compactly: the trace id is implied by
// the enclosing reply's request id and restored on decode. Attributes go
// out in sorted key order, so one tree has one encoding (and one CRC). No
// server builds a tree to encode any more — AppendResults writes the section
// from the stage record, a proxy relays it as bytes — so this is the
// reference both are held to.
func appendSpans(dst []byte, spans []obs.Span) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(spans)))
	for _, sp := range spans {
		dst = appendString(dst, sp.SpanID)
		dst = appendString(dst, sp.ParentID)
		dst = appendString(dst, sp.Name)
		dst = binary.AppendVarint(dst, sp.StartUnixUS)
		dst = appendF64(dst, sp.DurationMS)
		dst = binary.AppendUvarint(dst, uint64(len(sp.Attrs)))
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = appendString(dst, k)
			dst = appendString(dst, sp.Attrs[k])
		}
	}
	return dst
}

// setSpans encodes a span tree as the reply's span section, the way a
// decoded reply carries it.
func (rep *Reply) setSpans(spans []obs.Span) {
	rep.spans = string(appendSpans(nil, spans))
}

func goldenReplies() []Reply {
	anom, dev := true, 1.25
	replies := []Reply{
		{RequestID: "0123456789abcdef", Status: 200, Prediction: 49.75, Model: "env2vec", ModelVersion: 7, BatchSize: 32,
			Anomalous: &anom, Deviation: &dev},
		{RequestID: "fedcba9876543210", Status: 429, Error: "serve: queue full"},
		{RequestID: "00000000000000ff", Status: 200, Prediction: -3.5, Model: "env2vec", ModelVersion: 7, BatchSize: 32},
	}
	replies[0].setSpans(goldenSpans(replies[0].RequestID))
	return replies
}

func goldenPayload(t *testing.T, hexFrame string, typ byte) ([]byte, []byte) {
	t.Helper()
	raw, err := hex.DecodeString(hexFrame)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := readFrames(raw, 0)
	if err != nil || len(frames) != 1 || frames[0].Type != typ {
		t.Fatalf("golden frame: %d frames, err %v", len(frames), err)
	}
	return raw, frames[0].Payload
}

func TestGoldenFrames(t *testing.T) {
	if ProtocolVersion != 1 {
		t.Fatalf("ProtocolVersion = %d; the golden frames are v1", ProtocolVersion)
	}
	raw, payload := goldenPayload(t, goldenBatchHex, FramePredictBatch)
	reqs, err := DecodePredictBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenBatch(); !reflect.DeepEqual(reqs, want) {
		t.Fatalf("golden batch decoded to\n %+v %+v\nwant\n %+v %+v", reqs[0], reqs[1], want[0], want[1])
	}
	if got := AppendFrame(nil, FramePredictBatch, AppendPredictBatch(nil, reqs)); !bytes.Equal(got, raw) {
		t.Fatalf("batch re-encoded to\n%x\nwant\n%x", got, raw)
	}

	raw, payload = goldenPayload(t, goldenReplyHex, FramePredictReply)
	replies, err := DecodePredictReplies(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenReplies(); !reflect.DeepEqual(replies, want) {
		t.Fatalf("golden replies decoded to\n %+v\nwant\n %+v", replies, want)
	}
	if spans, want := replies[0].Spans(), goldenSpans(replies[0].RequestID); !reflect.DeepEqual(spans, want) {
		t.Fatalf("golden spans materialised to\n %+v\nwant\n %+v", spans, want)
	}
	// Relayed (decoded, re-emitted verbatim) and encoded from the tree.
	if got := AppendFrame(nil, FramePredictReply, AppendPredictReplies(nil, replies)); !bytes.Equal(got, raw) {
		t.Fatalf("replies relayed as\n%x\nwant\n%x", got, raw)
	}
	if got := AppendFrame(nil, FramePredictReply, AppendPredictReplies(nil, goldenReplies())); !bytes.Equal(got, raw) {
		t.Fatalf("replies encoded as\n%x\nwant\n%x", got, raw)
	}
}

// TestSpanEncodingDeterministic: attributes live in a map, and the encoder
// used to range over it — the same reply then framed to different bytes and
// a different CRC from one call to the next. One stage record has one
// encoding too: its span ids derive from its seed.
func TestSpanEncodingDeterministic(t *testing.T) {
	t0 := time.UnixMicro(1700000000000000)
	res := []serve.BatchResult{{Code: 200, Resp: &serve.Response{
		Prediction: 49.75, Model: "env2vec", ModelVersion: 7, BatchSize: 32,
		Record: serve.StageRecord{
			Enqueue: t0, Pickup: t0.Add(250 * time.Microsecond), ForwardEnd: t0.Add(750 * time.Microsecond),
			BatchID: 9, BatchSize: 32, Seed: 0x1111111111111111,
		},
	}}}
	distinct := map[string]bool{}
	for i := 0; i < 100; i++ {
		distinct[string(AppendFrame(nil, FramePredictReply, AppendResults(nil, goldenBatch()[:1], res)))] = true
		distinct[string(AppendFrame(nil, FramePredictReply, AppendPredictReplies(nil, goldenReplies()[:1])))] = true
	}
	if len(distinct) != 2 { // one per reply value
		t.Fatalf("200 encodings of two replies gave %d distinct frames, want 2", len(distinct))
	}
}

// frame32 is a full batch and its answers as a backend would send them:
// three stage spans per reply, no verdicts.
func frame32() (reqs, replies []byte) {
	batch := benchRequests(32, 14, 20)
	out := make([]Reply, len(batch))
	for i, r := range batch {
		r.RequestID = "00000000000000" + string("0123456789abcdef"[i/16]) + string("0123456789abcdef"[i%16])
		r.TraceParent = obs.FormatTraceParent(r.RequestID, "00000000000000aa")
		out[i] = Reply{RequestID: r.RequestID, Status: 200, Prediction: 50 + float64(i), Model: "env2vec", ModelVersion: 3, BatchSize: 32}
		out[i].setSpans(goldenSpans(r.RequestID))
	}
	return AppendPredictBatch(nil, batch), AppendPredictReplies(nil, out)
}

// TestFrameAllocBudget holds the relay to a per-frame allocation count: a
// proxy hop is one decode and one re-encode of each direction, and neither
// may cost per window or per span.
func TestFrameAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	reqRaw, repRaw := frame32()
	out := make([]byte, 0, len(reqRaw)+len(repRaw))
	var replies []Reply
	if n := testing.AllocsPerRun(100, func() {
		reqs, err := DecodePredictBatch(reqRaw)
		if err != nil {
			t.Fatal(err)
		}
		out = AppendPredictBatch(out[:0], reqs)
	}); n > 8 {
		t.Errorf("batch of 32 decoded and re-encoded in %.0f allocations, budget 8", n)
	}
	if !bytes.Equal(out, reqRaw) {
		t.Fatal("relayed batch differs from the original")
	}
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if replies, err = DecodePredictReplies(repRaw); err != nil {
			t.Fatal(err)
		}
		out = AppendPredictReplies(out[:0], replies)
	}); n > 8 {
		t.Errorf("32 replies of 3 spans decoded and re-encoded in %.0f allocations, budget 8", n)
	}
	if !bytes.Equal(out, repRaw) {
		t.Fatal("relayed replies differ from the original")
	}
	// The spans were never a tree on the way through; asked for, they are.
	spans := replies[31].Spans()
	if want := goldenSpans(replies[31].RequestID); !reflect.DeepEqual(spans, want) || spans[0].Name != "serve.request" {
		t.Fatalf("spans after relay:\n %+v\nwant\n %+v", spans, want)
	}
}

// TestDecodedFrameOwnsItsMemory: a connection reuses its read buffer the
// moment a frame is decoded, so nothing decoded may alias it.
func TestDecodedFrameOwnsItsMemory(t *testing.T) {
	reqRaw, repRaw := frame32()
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	}
	buf := append([]byte(nil), reqRaw...)
	reqs, err := DecodePredictBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	if want, _ := DecodePredictBatch(reqRaw); !reflect.DeepEqual(reqs, want) {
		t.Fatal("decoded requests changed when the read buffer was overwritten")
	}
	buf = append(buf[:0], repRaw...)
	replies, err := DecodePredictReplies(buf)
	if err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	want, _ := DecodePredictReplies(repRaw)
	if !reflect.DeepEqual(replies, want) || !reflect.DeepEqual(replies[7].Spans(), want[7].Spans()) {
		t.Fatal("decoded replies changed when the read buffer was overwritten")
	}
	a := 50.5
	buf = AppendWindow(buf[:0], Window{Seq: 9, RequestID: "0123456789abcdef", CF: []float64{1, 2}, Window: []float64{3, 4}, Actual: &a})
	w, err := DecodeWindow(buf)
	if err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	if w.RequestID != "0123456789abcdef" || w.CF[1] != 2 || w.Window[0] != 3 || *w.Actual != a {
		t.Fatalf("decoded window changed when the read buffer was overwritten: %+v", w)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetainedIDsDoNotPinFrames: every string of a decoded frame shares
// one block, so what keeps an id past its frame keeps a clone. Three keepers
// sit behind this package: a trace store holding a reply's materialised
// spans, serve's pending-prediction map holding a request's id and
// environment until /observe, and serve's own trace store holding the tree
// of a wire request it sampled. One id kept per frame, over 2 000 distinct
// frames, must cost its own bytes, not the frames'.
func TestRetainedIDsDoNotPinFrames(t *testing.T) {
	const frames = 2000
	reqRaw, repRaw := frame32()

	kept := make(map[string]struct{}, frames)
	before := liveHeap()
	for f := 0; f < frames; f++ {
		copy(repRaw[2:], fmt.Sprintf("%014x", f)) // first reply's id: frames differ
		replies, err := DecodePredictReplies(repRaw)
		if err != nil {
			t.Fatal(err)
		}
		kept[replies[0].Spans()[0].TraceID] = struct{}{}
	}
	if grew := int64(liveHeap()) - int64(before); len(kept) != frames || grew > 200<<10 {
		t.Fatalf("%d trace ids kept from materialised spans hold %d KB live, want < 200 (a frame is %d KB)", len(kept), grew>>10, len(repRaw)>>10)
	}

	// The pending map and the backend's trace store: the quality monitor is
	// on and no request carries its actual, so serve remembers every window
	// until /observe, and every trace is kept. Fill both to their caps with
	// requests that own their strings, then push 2 000 decoded frames of one
	// window through: each replaces a pending entry and a stored trace.
	s := serve.New(serve.Config{
		MaxBatch: 32, Workers: 1, PendingCap: frames, Quality: &quality.Config{},
		Trace: obs.TraceStoreConfig{Capacity: 64, SampleRate: 1},
	})
	defer s.Close()
	b := testBundle(5)
	b.Baseline = &quality.Baseline{Mu: 0, Sigma: 5, Samples: 100}
	s.SetBundle(b)
	rng := rand.New(rand.NewSource(4))
	batch := []*serve.Request{testRequest(rng, "")}
	// Realistic weight: an id is 16 bytes of a frame that also carries a
	// long chain id.
	batch[0].ChainID = strings.Repeat("chain", 2000)
	for f := 0; f < frames; f++ {
		own := *batch[0]
		own.RequestID = fmt.Sprintf("warm%012x", f)
		if _, _, err := s.Do(&own); err != nil {
			t.Fatal(err)
		}
	}
	before = liveHeap()
	for f := 0; f < frames; f++ {
		batch[0].RequestID = fmt.Sprintf("%016x", f)
		batch[0].TraceParent = obs.FormatTraceParent(batch[0].RequestID, "00000000000000aa")
		reqs, err := DecodePredictBatch(AppendPredictBatch(reqRaw[:0], batch))
		if err != nil {
			t.Fatal(err)
		}
		if res := s.DoBatch(reqs); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	}
	if n := s.Traces().Len(); n != 64 {
		t.Fatalf("backend trace store holds %d traces, want its capacity of 64", n)
	}
	if grew := int64(liveHeap()) - int64(before); grew > 200<<10 {
		t.Fatalf("%d pending predictions and 64 kept traces from decoded frames grew the live heap %d KB, want < 200 (a frame is %d KB)", frames, grew>>10, len(batch[0].ChainID)>>10)
	}
}

// TestStageRecordRendersOneTree: a served request is accounted for by one
// stage record, and every rendering of it names the same spans. The span
// section AppendResults writes decodes to exactly the tree the materialiser
// returns and is byte for byte what encoding that tree gives; the trace the
// backend's own store keeps is that tree; the JSON reply's is that tree plus
// serve.encode, the root extended by it, and is what the store keeps for it.
func TestStageRecordRendersOneTree(t *testing.T) {
	s := serve.New(serve.Config{
		MaxBatch: 8, Workers: 1, MinCalibration: 1,
		Detect: &anomaly.Config{Gamma: 2}, Quality: &quality.Config{},
		Trace: obs.TraceStoreConfig{Capacity: 64, SampleRate: 1},
	})
	defer s.Close()
	b := testBundle(5)
	b.Baseline = &quality.Baseline{Mu: 0, Sigma: 5, Samples: 100}
	s.SetBundle(b)
	srv := httptest.NewServer(s)
	defer srv.Close()

	rng := rand.New(rand.NewSource(8))
	actual := 50.5
	n := 0
	for _, traceParent := range []string{"", "00-0123456789abcdef-00000000000000aa-01", "not-a-traceparent"} {
		for _, withActual := range []bool{false, true, true} { // the second inline actual gets a verdict
			n++
			req := testRequest(rng, fmt.Sprintf("%016x", n))
			req.TraceParent = traceParent
			if withActual {
				req.Actual = &actual
			}
			wantParent := ""
			if strings.HasPrefix(traceParent, "00-") {
				wantParent = "00000000000000aa"
			}

			// Wire: the section is the tree, decoded and as bytes.
			reqs := []*serve.Request{req}
			results := s.DoBatch(reqs)
			if results[0].Err != nil {
				t.Fatal(results[0].Err)
			}
			resp := results[0].Resp
			if resp.Trace != nil {
				t.Fatalf("DoBatch built a trace block: %+v", resp.Trace)
			}
			tree := resp.Record.Trace(req.RequestID, req.TraceParent).Spans
			checkStageTree(t, tree, req.RequestID, wantParent, resp.Record.BatchID, resp.BatchSize)
			if d := tree[0].DurationMS - tree[1].DurationMS - tree[2].DurationMS; d < -1e-9 || d > 1e-9 {
				t.Fatalf("stages do not tile the request: %v = %v + %v + %v", tree[0].DurationMS, tree[1].DurationMS, tree[2].DurationMS, d)
			}
			replies, err := DecodePredictReplies(AppendResults(nil, reqs, results))
			if err != nil {
				t.Fatal(err)
			}
			if (replies[0].Deviation != nil) != (resp.Deviation != nil) {
				t.Fatalf("verdict lost on the wire: %+v vs %+v", replies[0], resp)
			}
			if got := replies[0].Spans(); !reflect.DeepEqual(got, tree) {
				t.Fatalf("span section decodes to\n %+v\nthe record materialises as\n %+v", got, tree)
			}
			if want := string(appendSpans(nil, tree)); replies[0].spans != want {
				t.Fatalf("span section is\n%x\nthe tree encodes as\n%x", replies[0].spans, want)
			}
			stored, ok := s.Traces().Get(req.RequestID)
			if !ok || stored.Outcome != obs.OutcomeServed || !reflect.DeepEqual(stored.Spans, tree) {
				t.Fatalf("backend store holds %v %+v\nthe record materialises as\n %+v", ok, stored, tree)
			}

			// JSON: the same tree, plus the encode stage.
			n++
			req.RequestID = fmt.Sprintf("%016x", n)
			body, _ := json.Marshal(req)
			hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/predict", bytes.NewReader(body))
			hreq.Header.Set(obs.TraceParentHeader, traceParent)
			hresp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(hresp.Body)
			hresp.Body.Close()
			var out serve.Response
			if err == nil {
				err = json.Unmarshal(reply, &out)
			}
			if err != nil || hresp.StatusCode != http.StatusOK || out.Trace == nil || len(out.Trace.Spans) != 4 {
				t.Fatalf("JSON reply: status %d, err %v, trace %+v", hresp.StatusCode, err, out.Trace)
			}
			// The block is spliced into the marshalled answer; the bytes are
			// those of marshalling the two together.
			if whole, _ := json.Marshal(&out); string(reply) != string(whole)+"\n" {
				t.Fatalf("JSON reply is\n%s\nmarshalled in one piece it is\n%s", reply, whole)
			}
			if (out.Quality != nil) != withActual || out.Model != "test" || out.BatchSize != 1 {
				t.Fatalf("JSON reply lost members beside the spliced trace block: %+v", out)
			}
			// One worker: the pass that served the request is the last one run.
			tr := out.Trace
			checkStageTree(t, tr.Spans[:3], req.RequestID, wantParent, s.Stats().Batches, out.BatchSize)
			root, enc := tr.Spans[0], tr.Spans[3]
			if enc.Name != "serve.encode" || enc.ParentID != root.SpanID || enc.SpanID != spanIDAfter(t, root.SpanID, 3) || enc.Attrs != nil {
				t.Fatalf("encode span %+v under root %+v", enc, root)
			}
			sum := tr.Spans[1].DurationMS + tr.Spans[2].DurationMS + enc.DurationMS
			if d := root.DurationMS - sum; d < -1e-9 || d > 1e-9 || enc.DurationMS <= 0 {
				t.Fatalf("root %v ms is not queue wait + forward + encode = %v ms", root.DurationMS, sum)
			}
			if tr.RequestID != req.RequestID {
				t.Fatalf("trace block id %q, want %q", tr.RequestID, req.RequestID)
			}
			stored, ok = s.Traces().Get(req.RequestID)
			if !ok || !reflect.DeepEqual(stored.Spans, tr.Spans) || stored.DurationMS != root.DurationMS {
				t.Fatalf("backend store holds %v %+v\nthe JSON reply carried\n %+v", ok, stored, tr.Spans)
			}
		}
	}
}

func spanIDAfter(t *testing.T, id string, n uint64) string {
	t.Helper()
	v, err := strconv.ParseUint(id, 16, 64)
	if err != nil || len(id) != 16 {
		t.Fatalf("span id %q is not 16 hex characters", id)
	}
	return fmt.Sprintf("%016x", v+n)
}

// checkStageTree holds a three-span tree to the shape every rendering shares.
func checkStageTree(t *testing.T, tree []obs.Span, traceID, parent string, batchID uint64, batchSize int) {
	t.Helper()
	if len(tree) != 3 {
		t.Fatalf("%d spans, want 3: %+v", len(tree), tree)
	}
	root := tree[0]
	want := []obs.Span{
		{SpanID: root.SpanID, ParentID: parent, Name: "serve.request", Attrs: map[string]string{"outcome": "served"}},
		{SpanID: spanIDAfter(t, root.SpanID, 1), ParentID: root.SpanID, Name: "serve.queue_wait"},
		{SpanID: spanIDAfter(t, root.SpanID, 2), ParentID: root.SpanID, Name: "serve.forward",
			Attrs: map[string]string{"batch_id": strconv.FormatUint(batchID, 10), "batch_size": strconv.Itoa(batchSize)}},
	}
	for i, sp := range tree {
		want[i].TraceID, want[i].StartUnixUS, want[i].DurationMS = traceID, sp.StartUnixUS, sp.DurationMS
		if !reflect.DeepEqual(sp, want[i]) || sp.StartUnixUS < 1e15 || sp.DurationMS < 0 {
			t.Fatalf("span %d is\n %+v\nwant\n %+v", i, sp, want[i])
		}
	}
}
