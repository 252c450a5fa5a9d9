package tsdb

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/query_golden.json from the current engine")

const goldenPath = "testdata/query_golden.json"

// The golden pins what the query engine answers over one seeded store:
// every shipped rule, dashboard panel and documented expression, an
// operator matrix, and the exact error text of invalid inputs. Values are
// stored as strconv 'g' strings so a changed last bit is a failure.
type goldenFile struct {
	Instant []goldenInstant `json:"instant"`
	Range   []goldenRange   `json:"range"`
	Errors  []goldenError   `json:"errors"`
}

type goldenInstant struct {
	Expr   string   `json:"expr"`
	T      int64    `json:"t"`
	Points []string `json:"points,omitempty"` // "fingerprint => value"
	Err    string   `json:"err,omitempty"`
}

type goldenRange struct {
	Expr   string              `json:"expr"`
	From   int64               `json:"from"`
	To     int64               `json:"to"`
	Step   int64               `json:"step"`
	Series map[string][]string `json:"series,omitempty"` // fingerprint → "t v" per sample
	Order  []string            `json:"order,omitempty"`
	Err    string              `json:"err,omitempty"`
}

type goldenError struct {
	Expr string `json:"expr"`
	Err  string `json:"err"`
}

// goldenDB seeds seven hours of 30 s samples: a proxy and two serve
// instances with outcome counters (one instance restarts, resetting its
// counters), cumulative _bucket histograms, gauges, recorded a:b:c names,
// and the small fixtures the unit tests query by name.
func goldenDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	rng := rand.New(rand.NewSource(25))
	app := func(l Labels, ts int64, v float64) {
		if err := db.Append(l, ts, v); err != nil {
			t.Fatal(err)
		}
	}
	const end, step = 7 * 3600, 30
	instances := []string{"b0:8081", "b1:8082"}
	outcomes := []string{"served", "failed", "shed"}
	bounds := []float64{5, 10, 25, 50, 100, 250}
	les := []string{"5", "10", "25", "50", "100", "250", "+Inf"}

	serveReq := make([][]float64, len(instances))
	serveBkt := make([][]float64, len(instances))
	for i := range instances {
		serveReq[i] = make([]float64, len(outcomes))
		serveBkt[i] = make([]float64, len(les))
	}
	proxyReq := make([]float64, len(outcomes))
	proxyBkt := make([]float64, len(les))
	observe := func(bkt []float64, n int, scale float64) {
		for k := 0; k < n; k++ {
			lat := rng.ExpFloat64() * scale
			for b, bound := range bounds {
				if lat <= bound {
					bkt[b]++
				}
			}
			bkt[len(bounds)]++
		}
	}
	var reqs, doubleReset float64
	for ts := int64(0); ts <= end; ts += step {
		outage := ts >= 18000 && ts < 19800
		for i, inst := range instances {
			if i == 1 && ts == 10800 { // b1 restarts: every counter resets
				for o := range outcomes {
					serveReq[i][o] = 0
				}
				for b := range les {
					serveBkt[i][b] = 0
				}
			}
			for o, out := range outcomes {
				inc := float64(rng.Intn(20))
				if out != "served" {
					inc = float64(rng.Intn(3))
				}
				serveReq[i][o] += inc
				app(Labels{"__name__": "env2vec_serve_requests_total", "instance": inst, "outcome": out}, ts, serveReq[i][o])
			}
			observe(serveBkt[i], rng.Intn(15), 20+10*float64(i))
			for b, le := range les {
				app(Labels{"__name__": "env2vec_serve_request_latency_ms_bucket", "instance": inst, "le": le}, ts, serveBkt[i][b])
			}
			app(Labels{"__name__": "env2vec_serve_queue_depth", "instance": inst}, ts, float64(rng.Intn(12)))
			for _, env := range []string{"tb1/fw", "tb2/fw"} {
				app(Labels{"__name__": "env2vec_quality_exceed_rate", "instance": inst, "env": env}, ts, float64(rng.Intn(100))/100)
			}
			app(Labels{"__name__": "g", "instance": inst}, ts, float64(rng.Intn(50)-10))
			for shard := 0; shard < 2; shard++ {
				app(Labels{"__name__": "qd", "instance": inst, "shard": strconv.Itoa(shard)}, ts, float64(rng.Intn(9)))
			}
		}
		for o, out := range outcomes {
			inc := float64(rng.Intn(30))
			switch {
			case out == "served" && outage:
				inc = float64(rng.Intn(3))
			case out == "failed" && outage:
				inc = float64(10 + rng.Intn(20))
			case out != "served":
				inc = float64(rng.Intn(2))
			}
			proxyReq[o] += inc
			app(Labels{"__name__": "env2vec_proxy_requests_total", "instance": "p:9080", "outcome": out}, ts, proxyReq[o])
			app(Labels{"__name__": "req_total", "outcome": out}, ts, proxyReq[o]*2)
		}
		observe(proxyBkt, rng.Intn(25), 40)
		for b, le := range les {
			app(Labels{"__name__": "env2vec_proxy_request_latency_ms_bucket", "instance": "p:9080", "le": le}, ts, proxyBkt[b])
			app(Labels{"__name__": "lat_ms_bucket", "le": le}, ts, proxyBkt[b])
		}
		for _, w := range []string{"5m", "1h", "30m", "6h"} {
			burn := float64(rng.Intn(300)) / 10
			app(Labels{"__name__": "slo:serve:burn_rate:" + w}, ts, burn)
			app(Labels{"__name__": "slo:serve:error_ratio:" + w}, ts, burn/100)
		}
		app(Labels{"__name__": "slo:serve:latency_p99:5m"}, ts, float64(100+rng.Intn(300)))
		reqs += float64(rng.Intn(40))
		if ts%3600 == 1800 {
			reqs = float64(rng.Intn(5)) // reqs_total restarts every hour
		}
		app(Labels{"__name__": "reqs_total", "job": "serve"}, ts, reqs)
		doubleReset += float64(rng.Intn(10))
		if ts%600 == 0 {
			doubleReset = 0
		}
		app(Labels{"__name__": "double_reset"}, ts, doubleReset)
	}
	app(Labels{"__name__": "lonely_total"}, end-10, 5)
	return db
}

var goldenInstants = []int64{600, 10815, 18900, 21615, 25200, 25550}

// goldenExprs lists every expression the golden evaluates at each of
// goldenInstants.
func goldenExprs() []string {
	var exprs []string
	rf := DefaultSLORules(0.99, 250)
	for _, r := range rf.Recording {
		exprs = append(exprs, r.Expr)
	}
	for _, r := range rf.Alerting {
		exprs = append(exprs, r.Expr)
	}
	for _, p := range dashboardPanels {
		exprs = append(exprs, p.Expr)
	}
	for _, bw := range burnWindows {
		exprs = append(exprs, "slo:serve:burn_rate:"+bw.Window)
	}
	exprs = append(exprs,
		// query_test.go
		`rate(reqs_total[60s])`, `increase(reqs_total[1m])`, `rate(reqs_total[30s])`,
		`increase(reqs_total[45s])`, `rate(reqs_total[45s])`, `increase(double_reset[40s])`,
		`rate(lonely_total[60s])`,
		`sum by (instance) (qd)`, `avg by (instance) (qd)`, `max(qd)`, `min(qd)`, `count(qd)`,
		`histogram_quantile(0.5, lat_ms_bucket)`, `histogram_quantile(0.9, lat_ms_bucket)`,
		`histogram_quantile(0.99, lat_ms_bucket)`,
		`histogram_quantile(0.5, sum by (le) (rate(lat_ms_bucket[60s])))`,
		`(sum(rate(req_total[60s])) - sum(rate(req_total{outcome="served"}[60s]))) / sum(rate(req_total[60s]))`,
		`((sum(rate(req_total[60s])) - sum(rate(req_total{outcome="served"}[60s]))) / sum(rate(req_total[60s]))) / 0.01 > 5`,
		`((sum(rate(req_total[60s])) - sum(rate(req_total{outcome="served"}[60s]))) / sum(rate(req_total[60s]))) / 0.01 > 50`,
		`((sum(rate(req_total[60s])) - sum(rate(req_total{outcome="served"}[60s]))) / sum(rate(req_total[60s]))) > 0.05 and ((sum(rate(req_total[60s])) - sum(rate(req_total{outcome="served"}[60s]))) / sum(rate(req_total[60s]))) > 0.01`,
		`rate(req_total[60s]) / rate(req_total[60s])`,
		`g`,
		`rate(env2vec_serve_requests_total{outcome="served"}[5m])`,
		`slo:serve:burn_rate:5m > 14.4 and slo:serve:burn_rate:1h > 14.4`,
		`histogram_quantile(0.99, sum by (le) (rate(lat_ms_bucket[5m])))`,
		`avg by (instance, shard) (qd) * 2 - 1`,
		// docs/observability.md and the verify recipe
		`env2vec_proxy_requests_total{outcome="served"}`,
		`rate(env2vec_proxy_requests_total[5m])`, `increase(env2vec_proxy_requests_total[5m])`,
		`histogram_quantile(0.99, sum by (le) (rate(env2vec_proxy_request_latency_ms_bucket[5m])))`,
		`slo:serve:error_ratio:5m / 0.01`,
		`sum by (outcome) (rate(env2vec_proxy_requests_total[1m]))`,
		`histogram_quantile(0.99, sum by (le) (rate(env2vec_serve_request_latency_ms_bucket[1m])))`,
		`env2vec_serve_queue_depth`,
		// precedence, associativity, parentheses, unary minus
		`1 + 2 * 3`, `(1 + 2) * 3`, `10 - 4 - 3`, `10 - (4 - 3)`, `8 / 4 / 2`, `2 * 3 / 4 * 5`,
		`-3`, `--3`, `-(1)`, `- 3 + 2`, `2 * -1`, `1 - -1`, `-0.5e1`, `1 + 2 > 2`, `1 + 2 > 4`,
		`env2vec_serve_queue_depth - 1 - 1`, `env2vec_serve_queue_depth * -1`,
		`env2vec_serve_queue_depth + 1 > 2 * 2`, `(env2vec_serve_queue_depth > 3) > 5`,
		`g > 0 and qd > 2 and g < 30`, `(g > 0 and g < 30) + 1`,
		`sum(g) / count(g)`, `max by (instance) (qd) - min by (instance) (qd)`,
		`env2vec_quality_exceed_rate > 0.5 and env2vec_quality_exceed_rate < 0.9`,
		`1 and 2`, `g and 2`, `2 and g`,
	)
	const (
		s3, s0 = "3", "0"
		vq     = "env2vec_serve_queue_depth"
		vsum   = "sum by (instance) (rate(env2vec_serve_requests_total[5m]))"
		vx     = "env2vec_quality_exceed_rate"
		vr     = "rate(env2vec_serve_requests_total[5m])"
		vr1    = "rate(env2vec_serve_requests_total[1m])"
		vscal  = "slo:serve:error_ratio:5m"
	)
	pairs := [][2]string{
		{s3, s0}, {s3, s3}, {s0, s3},
		{vq, s3}, {vq, s0}, {s3, vq}, {s0, vq},
		{vq, vq}, {vq, vsum}, {vsum, vq}, {vq, vx}, {vr, vr1}, {vr, vq}, {vscal, "slo:serve:burn_rate:5m"},
	}
	for _, op := range []string{"+", "-", "*", "/", ">", "<", ">=", "<=", "==", "!=", "and"} {
		for _, p := range pairs {
			exprs = append(exprs, "("+p[0]+") "+op+" ("+p[1]+")")
		}
	}
	return exprs
}

// goldenInvalid lists inputs the parser must reject, each with one fault.
var goldenInvalid = []string{
	"", "   ", "sum(", `m{key=}`, `m{key="v}`, `m{key!="v"}`, `m{key=~"v"}`,
	"rate(m)", `increase(m{a="b"})`, "m[5m]", `m{a="b"}[1h]`, "sum(m[5m])", "m[5m] > 1", "1 + m[30s]",
	"histogram_quantile(0.9, m[5m])", "rate(m[5x])", "rate(m[0m])", "rate(m[-5m])", "rate(m[])", "rate(m[5m)",
	"histogram_quantile(2, m)", "histogram_quantile(m, x)", "histogram_quantile(0.5 m)",
	"rate(sum(m))", "rate(1)", "m ~ 5", "m + ", "* m", "m m", "(m", "m)", "sum by (a (m)", "sum by () (m)",
	"a > b > c", "a == b != c", "1 < 2 < 3", "a and b > c > d", "(a > b) > c > d", "a > b + c > d",
	"-m", "m{a=\"b\" c=\"d\"} = 1", "1.2.3", "0x10", "m @ 5", `"str"`, "sum by (a) m",
}

func goldenPoints(vec Vector) []string {
	out := make([]string, len(vec))
	for i, p := range vec {
		out[i] = p.Labels.Fingerprint() + " => " + strconv.FormatFloat(p.V, 'g', -1, 64)
	}
	return out
}

func computeGolden(t *testing.T) goldenFile {
	db := goldenDB(t)
	var g goldenFile
	for _, expr := range goldenExprs() {
		for _, ts := range goldenInstants {
			gi := goldenInstant{Expr: expr, T: ts}
			vec, err := db.Instant(expr, ts)
			if err != nil {
				gi.Err = err.Error()
			} else {
				gi.Points = goldenPoints(vec)
			}
			g.Instant = append(g.Instant, gi)
		}
	}
	var rangeExprs []string
	for _, p := range dashboardPanels {
		rangeExprs = append(rangeExprs, p.Expr)
	}
	rangeExprs = append(rangeExprs, "env2vec_serve_queue_depth", "slo:serve:burn_rate:5m > 14.4",
		"(g) - (env2vec_serve_queue_depth)")
	type window struct{ from, to, step int64 }
	windows := []window{{1800, 3600, dashStep}, {18000, 19800, dashStep}, {23400, 25200, dashStep}, {0, 25200, 900}}
	for _, expr := range rangeExprs {
		for _, w := range windows {
			g.Range = append(g.Range, goldenRangeOf(db, expr, w.from, w.to, w.step))
		}
	}
	g.Range = append(g.Range,
		goldenRangeOf(db, "g", 0, 60, 0),
		goldenRangeOf(db, "g", 60, 0, 15),
		goldenRangeOf(db, "g", 0, 100010, 10),
		goldenRangeOf(db, "rate(g)", 0, 60, 15),
	)
	for _, expr := range goldenInvalid {
		_, err := ParseExpr(expr)
		ge := goldenError{Expr: expr}
		if err != nil {
			ge.Err = err.Error()
		}
		g.Errors = append(g.Errors, ge)
	}
	return g
}

func goldenRangeOf(db *DB, expr string, from, to, step int64) goldenRange {
	gr := goldenRange{Expr: expr, From: from, To: to, Step: step}
	series, err := db.Range(expr, from, to, step)
	if err != nil {
		gr.Err = err.Error()
		return gr
	}
	gr.Series = make(map[string][]string, len(series))
	for _, s := range series {
		fp := s.Labels.Fingerprint()
		gr.Order = append(gr.Order, fp)
		for _, smp := range s.Samples {
			gr.Series[fp] = append(gr.Series[fp], strconv.FormatInt(smp.T, 10)+" "+strconv.FormatFloat(smp.V, 'g', -1, 64))
		}
	}
	return gr
}

// marshalGolden writes one entry per line, so a moved answer is a one-line
// diff.
func marshalGolden(g goldenFile) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // keep > and & readable in expressions
	section := func(name string, n int, entry func(i int) any) error {
		b.WriteString(strconv.Quote(name) + ": [\n")
		for i := 0; i < n; i++ {
			if i > 0 {
				b.Truncate(b.Len() - 1) // the encoder's newline
				b.WriteString(",\n")
			}
			if err := enc.Encode(entry(i)); err != nil {
				return err
			}
		}
		b.WriteString("]")
		return nil
	}
	b.WriteString("{")
	if err := section("instant", len(g.Instant), func(i int) any { return g.Instant[i] }); err != nil {
		return nil, err
	}
	b.WriteString(",\n")
	if err := section("range", len(g.Range), func(i int) any { return g.Range[i] }); err != nil {
		return nil, err
	}
	b.WriteString(",\n")
	if err := section("errors", len(g.Errors), func(i int) any { return g.Errors[i] }); err != nil {
		return nil, err
	}
	b.WriteString("}\n")
	return b.Bytes(), nil
}

// TestQueryGolden: the engine's answers, bit for bit, and its error
// texts, against the committed golden. Regenerate with
// `go test -run 'TestQueryGolden$' ./internal/tsdb/ -update` only when an
// answer is meant to move.
func TestQueryGolden(t *testing.T) {
	got := computeGolden(t)
	if *update {
		b, err := marshalGolden(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Instant) != len(want.Instant) || len(got.Range) != len(want.Range) || len(got.Errors) != len(want.Errors) {
		t.Fatalf("golden shape: %d/%d/%d entries, want %d/%d/%d",
			len(got.Instant), len(got.Range), len(got.Errors), len(want.Instant), len(want.Range), len(want.Errors))
	}
	bad := 0
	for i, w := range want.Instant {
		g := got.Instant[i]
		if g.Expr != w.Expr || g.T != w.T || g.Err != w.Err || strings.Join(g.Points, "\n") != strings.Join(w.Points, "\n") {
			t.Errorf("Instant(%q, %d):\n got  %q %q\n want %q %q", w.Expr, w.T, g.Points, g.Err, w.Points, w.Err)
			bad++
		}
	}
	for i, w := range want.Range {
		g := got.Range[i]
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("Range(%q, %d, %d, %d):\n got  %s\n want %s", w.Expr, w.From, w.To, w.Step, gj, wj)
			bad++
		}
	}
	for i, w := range want.Errors {
		if g := got.Errors[i]; g != w {
			t.Errorf("ParseExpr(%q) error = %q, want %q", w.Expr, g.Err, w.Err)
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d golden entries differ", bad)
	}
}
