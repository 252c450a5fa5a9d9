package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"time"

	"env2vec/internal/obs"
)

// The /predict reply is rendered by hand into one buffer, byte for byte what
// json.Marshal of the Response followed by the trace block spliced in as its
// last member gives (FuzzPredictReplyJSON holds the two together): the same
// member order, omitempty rules, string escaping (HTML-safe: the <…> of an
// environment is \u003c…\u003e) and float format. A field added to Response
// or quality.Verdict must be added here too; TestPredictReplyRendersEveryField
// fails until it is.

// appendResponse renders resp's members up to, not including, its closing
// brace. The error is the one json.Marshal returns for a float JSON cannot
// carry; dst is then to be discarded.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.raw(`{"prediction":`)
	w.float(resp.Prediction)
	w.raw(`,"model":`)
	w.str(resp.Model)
	w.raw(`,"model_version":`)
	w.int(int64(resp.ModelVersion))
	w.raw(`,"batch_size":`)
	w.int(int64(resp.BatchSize))
	if resp.Anomalous != nil {
		w.raw(`,"anomalous":`)
		w.bool(*resp.Anomalous)
	}
	if resp.Deviation != nil {
		w.raw(`,"deviation":`)
		w.float(*resp.Deviation)
	}
	if q := resp.Quality; q != nil {
		w.raw(`,"quality":{"env":`)
		w.str(q.Env)
		w.raw(`,"error":`)
		w.float(q.Error)
		w.raw(`,"exceeded":`)
		w.bool(q.Exceeded)
		if q.Drift {
			w.raw(`,"drift":true`)
		}
		if q.DriftReason != "" {
			w.raw(`,"drift_reason":`)
			w.str(q.DriftReason)
		}
		if q.Calibrating {
			w.raw(`,"calibrating":true`)
		}
		w.raw(`,"window_mean":`)
		w.float(q.WindowMean)
		w.raw(`,"window_sigma":`)
		w.float(q.WindowSigma)
		w.raw(`,"exceed_rate":`)
		w.float(q.ExceedRate)
		w.raw(`,"baseline_mu":`)
		w.float(q.BaselineMu)
		w.raw(`,"baseline_sigma":`)
		w.float(q.BaselineSigma)
		w.raw(`}`)
	}
	return w.b, w.err
}

// appendTraceBlock renders the trace block member, `,"trace":{…}`, of the
// request rec served under id: the record's three spans, the root placed by
// traceParent and covering the encode stage, then serve.encode from
// encStart to encEnd — the spans appendSection stores for it.
func appendTraceBlock(dst []byte, rec *StageRecord, id, traceParent string, encStart, encEnd time.Time) []byte {
	_, parent, _ := obs.ParseTraceParent(traceParent)
	var root, sid [16]byte
	rootID := string(obs.AppendID(root[:0], rec.Seed)) // stays on the stack
	encMS := obs.MS(encEnd.Sub(encStart))
	w := jsonWriter{b: dst}
	w.raw(`,"trace":{"request_id":`)
	w.str(id)
	w.raw(`,"spans":[`)
	w.span(id, []byte(rootID), parent, "serve.request", rec.Enqueue, obs.MS(rec.ForwardEnd.Sub(rec.Enqueue))+encMS)
	w.raw(`,"attrs":{"outcome":"served"}},`)
	w.span(id, obs.AppendID(sid[:0], rec.Seed+1), rootID, "serve.queue_wait", rec.Enqueue, obs.MS(rec.Pickup.Sub(rec.Enqueue)))
	w.raw(`},`)
	w.span(id, obs.AppendID(sid[:0], rec.Seed+2), rootID, "serve.forward", rec.Pickup, obs.MS(rec.ForwardEnd.Sub(rec.Pickup)))
	w.raw(`,"attrs":{"batch_id":"`)
	w.b = strconv.AppendUint(w.b, rec.BatchID, 10)
	w.raw(`","batch_size":"`)
	w.int(int64(rec.BatchSize))
	w.raw(`"}},`)
	w.span(id, obs.AppendID(sid[:0], rec.Seed+3), rootID, "serve.encode", encStart, encMS)
	w.raw(`}]}`)
	return w.b // durations of times are finite: no error
}

// jsonWriter appends JSON values as encoding/json writes them, keeping the
// first error.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

func (w *jsonWriter) bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

// span opens one span object and writes its members up to its duration;
// the caller writes its attributes, if any, and closes it.
func (w *jsonWriter) span(traceID string, spanID []byte, parent, name string, start time.Time, durationMS float64) {
	w.raw(`{"trace_id":`)
	w.str(traceID)
	w.raw(`,"span_id":"`)
	w.b = append(w.b, spanID...) // hex
	w.raw(`"`)
	if parent != "" {
		w.raw(`,"parent_id":`)
		w.str(parent)
	}
	w.raw(`,"name":"`)
	w.raw(name)
	w.raw(`","start_unix_us":`)
	w.int(start.UnixMicro())
	w.raw(`,"duration_ms":`)
	w.float(durationMS)
}

// float writes f as encoding/json writes a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 up, its
// exponent without a leading zero. NaN and ±Inf are json.Marshal's error.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1] // e-09 → e-9
		w.b = w.b[:n-1]
	}
}

// str writes s as a JSON string the way encoding/json escapes it. Printable
// ASCII is written here, <, > and & as \u003c, \u003e and \u0026; a string
// holding anything else (control bytes, UTF-8, invalid UTF-8) is handed to
// json.Marshal whole.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f {
			// A string always marshals. The clone keeps s itself from
			// escaping, so a caller's stack-rendered id stays on the stack.
			q, _ := json.Marshal(strings.Clone(s))
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '<':
			esc = "\\u003c"
		case '>':
			esc = "\\u003e"
		case '&':
			esc = "\\u0026"
		default:
			continue
		}
		w.b = append(append(w.b, s[start:i]...), esc...)
		start = i + 1
	}
	w.b = append(append(w.b, s[start:]...), '"')
}
