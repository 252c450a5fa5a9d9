package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"env2vec/internal/obs"
	"env2vec/internal/quality"
)

// traceBlock is the JSON reply's trace block as a client decodes it.
type traceBlock struct {
	RequestID string     `json:"request_id"`
	Spans     []obs.Span `json:"spans,omitempty"`
}

// jsonReply is a /predict reply as a client decodes it: the Response's
// members, then the trace block.
type jsonReply struct {
	Response
	Trace *traceBlock `json:"trace,omitempty"`
}

// recordTree materialises a stage record as the span tree it stands for,
// the way the serving path did before it rendered records straight into
// bytes: a serve.request root, parented onto the caller's span when
// traceParent names one, with serve.queue_wait and serve.forward beneath it.
func recordTree(r *StageRecord, id, traceParent string) *traceBlock {
	_, parent, _ := obs.ParseTraceParent(traceParent)
	span := func(n uint64, parent, name string, start, end time.Time) obs.Span {
		return obs.Span{
			TraceID: id, SpanID: string(obs.AppendID(nil, r.Seed+n)), ParentID: parent, Name: name,
			StartUnixUS: start.UnixMicro(), DurationMS: obs.MS(end.Sub(start)),
		}
	}
	root := span(0, parent, "serve.request", r.Enqueue, r.ForwardEnd)
	root.Attrs = map[string]string{"outcome": obs.OutcomeServed}
	fwd := span(2, root.SpanID, "serve.forward", r.Pickup, r.ForwardEnd)
	fwd.Attrs = map[string]string{"batch_id": strconv.FormatUint(r.BatchID, 10), "batch_size": strconv.Itoa(r.BatchSize)}
	return &traceBlock{RequestID: id, Spans: []obs.Span{root, span(1, root.SpanID, "serve.queue_wait", r.Enqueue, r.Pickup), fwd}}
}

// referenceReply is the /predict reply as the handler built it before it
// rendered by hand: json.Marshal of the response, and of the record's tree
// with the encode stage added and the root extended over it, spliced in as
// the last member.
func referenceReply(resp *Response, id, traceParent string, encStart, encEnd time.Time) ([]byte, error) {
	buf, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	block := recordTree(&resp.Record, id, traceParent)
	root := &block.Spans[0]
	root.DurationMS += obs.MS(encEnd.Sub(encStart))
	block.Spans = append(block.Spans, obs.Span{
		TraceID: id, SpanID: string(obs.AppendID(nil, resp.Record.Seed+3)), ParentID: root.SpanID, Name: "serve.encode",
		StartUnixUS: encStart.UnixMicro(), DurationMS: obs.MS(encEnd.Sub(encStart)),
	})
	tb, err := json.Marshal(block)
	if err != nil {
		return nil, err
	}
	buf = append(buf[:len(buf)-1], `,"trace":`...)
	return append(append(buf, tb...), "}\n"...), nil
}

// renderReply is what handlePredict writes for a served request.
func renderReply(resp *Response, id, traceParent string, encStart, encEnd time.Time) ([]byte, error) {
	buf, err := appendResponse(nil, resp)
	if err != nil {
		return nil, err
	}
	return append(appendTraceBlock(buf, &resp.Record, id, traceParent, encStart, encEnd), "}\n"...), nil
}

// checkReply fails unless the hand-rendered reply is the reference's, byte
// for byte, or both refuse the response with the same error.
func checkReply(t *testing.T, resp *Response, id, traceParent string, encStart, encEnd time.Time) {
	t.Helper()
	want, werr := referenceReply(resp, id, traceParent, encStart, encEnd)
	got, gerr := renderReply(resp, id, traceParent, encStart, encEnd)
	if (werr != nil) != (gerr != nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("errors differ: json.Marshal %v, rendered %v", werr, gerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rendered reply\n%s\njson.Marshal and splice\n%s", got, want)
	}
}

// FuzzPredictReplyJSON holds the hand-rendered /predict reply to json.Marshal
// plus the splice it replaced: every member, escape and float format.
func FuzzPredictReplyJSON(f *testing.F) {
	for _, s := range []string{"", "env2vec", "<tb1,fw,load,B1>", `a"b\c`, "S&P <x>", "\x00\x1f\x7f", "\n\t\r\b\f", "é—Ω", "a\u2028b\u2029", "\xff\xfe", "tb\xc3"} {
		for _, v := range []float64{0, math.Copysign(0, -1), 1e-6, 9.999999e-7, -1e-7, 1e21, 9.99999e20, -1e21, 1.5e-300, 5e-324, math.MaxFloat64, 0.1, 123456.789, math.NaN(), math.Inf(1)} {
			f.Add(v, s, 3, 1, uint8(0xff), v, s, v, s, "00-0123456789abcdef-"+s+"-01", uint64(7), int64(-5))
		}
	}
	f.Add(42.5, "test", 1, 8, uint8(0), 0.0, "", 0.0, "", "", uint64(0), int64(0))
	f.Fuzz(func(t *testing.T, pred float64, model string, version, batch int, opts uint8, dev float64, env string, qf float64, reason, traceParent string, seed uint64, startUS int64) {
		resp := &Response{Prediction: pred, Model: model, ModelVersion: version, BatchSize: batch}
		anomalous := opts&2 != 0
		if opts&1 != 0 {
			resp.Anomalous = &anomalous
		}
		if opts&4 != 0 {
			resp.Deviation = &dev
		}
		if opts&8 != 0 {
			resp.Quality = &quality.Verdict{
				Env: env, Error: qf, Exceeded: opts&16 != 0, Drift: opts&32 != 0, DriftReason: reason,
				Calibrating: opts&64 != 0, WindowMean: -qf, WindowSigma: dev, ExceedRate: qf / 3,
				BaselineMu: pred, BaselineSigma: qf * 1e22,
			}
		}
		base := time.UnixMicro(startUS).Add(time.Duration(seed % 1000))
		resp.Record = StageRecord{
			Enqueue: base, Pickup: base.Add(time.Duration(seed % 7919)), ForwardEnd: base.Add(time.Duration(seed % 104729)),
			BatchID: seed, BatchSize: batch, Seed: seed * 0x9e3779b97f4a7c15,
		}
		encStart := resp.Record.ForwardEnd.Add(time.Duration(opts))
		checkReply(t, resp, reason, traceParent, encStart, encStart.Add(time.Duration(seed%100003)))
	})
}

// TestPredictReplyRendersEveryField fills every field of a Response and its
// Verdict through reflection, so a field added to either type without a
// line in appendResponse fails here: json.Marshal renders it, the hand
// renderer does not.
func TestPredictReplyRendersEveryField(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25)))
		case reflect.Int:
			v.SetInt(rng.Int63n(1000) - 10)
		case reflect.String:
			v.SetString([]string{"<tb1,fw,load,B1>", "mean-shift", `q"&`}[rng.Intn(3)])
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() && v.Type().Field(i).Tag.Get("json") != "-" {
					fill(v.Field(i))
				}
			}
		}
	}
	for i := 0; i < 200; i++ {
		var resp Response
		fill(reflect.ValueOf(&resp).Elem())
		now := time.Now()
		resp.Record = StageRecord{Enqueue: now, Pickup: now.Add(time.Millisecond), ForwardEnd: now.Add(2 * time.Millisecond), BatchID: 9, BatchSize: 4, Seed: rng.Uint64()}
		checkReply(t, &resp, "0123456789abcdef", "00-0123456789abcdef-00000000000000aa-01", now.Add(3*time.Millisecond), now.Add(4*time.Millisecond))
	}
}

// TestPooledRequestCarriesNoActual: the handler decodes into a pooled
// Request. A request with an inline actual, then one without it on the same
// pooled Request, must get no verdict: the first request's Actual pointer
// may not carry its observation into the second.
func TestPooledRequestCarriesNoActual(t *testing.T) {
	s := New(Config{MaxBatch: 4, Workers: 1, MinCalibration: 1, Quality: &quality.Config{}, Trace: noTraces})
	defer s.Close()
	b := testBundle(1, 1)
	b.Baseline = &quality.Baseline{Mu: 0, Sigma: 5, Samples: 100}
	s.SetBundle(b)
	rng := rand.New(rand.NewSource(3))
	post := func(req *Request) jsonReply {
		t.Helper()
		body, _ := json.Marshal(req)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		var out jsonReply
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || w.Code != http.StatusOK {
			t.Fatalf("predict: %d %s", w.Code, w.Body)
		}
		return out
	}
	for i := 0; i < 50; i++ { // the pool hands back what it was given, mostly
		actual := 50.0
		with := randomRequest(rng)
		with.Actual = &actual
		if out := post(with); out.Quality == nil {
			t.Fatalf("request %d with an actual got no verdict", i)
		}
		without := randomRequest(rng)
		without.CF, without.Window = without.CF[:1], nil // and a shorter request after a longer one is refused
		body, _ := json.Marshal(without)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "contextual features") {
			t.Fatalf("a request with 1 feature after one with %d: %d %s", len(with.CF), w.Code, w.Body)
		}
		if out := post(randomRequest(rng)); out.Quality != nil || out.Anomalous != nil || out.Deviation != nil {
			t.Fatalf("request %d without an actual got a verdict: %+v", i, out)
		}
	}
}

// TestJSONPredictAllocs gates the backend's JSON edge: one /predict through
// ServeHTTP, its trace sampled out, costs its decode (the strings the
// request names, the decoder and its buffer, the actual), the serving path
// (Do's one object) and net/http's test request and recorder: 37 objects.
// Before the reply was rendered into a pooled buffer and the request decoded
// into a pooled one, the same request counted 72.
func TestJSONPredictAllocs(t *testing.T) {
	s, reqs := allocServer(t, 1, noTraces)
	actual := 50.5
	reqs[0].Actual = &actual
	reqs[0].TraceParent = ""
	body, _ := json.Marshal(reqs[0])
	hdr := http.Header{obs.RequestIDHeader: {reqs[0].RequestID}, obs.TraceParentHeader: {"00-" + reqs[0].RequestID + "-00000000000000aa-01"}}
	run := func() {
		r := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
		r.Header = hdr
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("predict: %d %s", w.Code, w.Body)
		}
	}
	for i := 0; i < 20; i++ {
		run()
	}
	n := testing.AllocsPerRun(500, run)
	t.Logf("a JSON predict through ServeHTTP: %.1f objects", n)
	if n > jsonPredictAllocBudget {
		t.Errorf("a JSON predict through ServeHTTP costs %.1f objects, budget %d", n, jsonPredictAllocBudget)
	}
}

// jsonPredictAllocBudget is TestJSONPredictAllocs' bound, pinned from the
// build (37) plus about a tenth.
const jsonPredictAllocBudget = 41
