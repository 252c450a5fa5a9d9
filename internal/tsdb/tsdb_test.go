package tsdb

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"env2vec/internal/obs"
)

func TestLabelsFingerprintDeterministic(t *testing.T) {
	a := Labels{"b": "2", "a": "1"}
	b := Labels{"a": "1", "b": "2"}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprint must be order-independent")
	}
	if a.Fingerprint() != "a=1,b=2" {
		t.Fatalf("fingerprint = %q", a.Fingerprint())
	}
}

func TestLabelsMatches(t *testing.T) {
	l := Labels{"env": "e1", "metric": "cpu"}
	if !l.Matches(Labels{}) || !l.Matches(Labels{"env": "e1"}) {
		t.Fatalf("should match")
	}
	if l.Matches(Labels{"env": "e2"}) || l.Matches(Labels{"missing": "x"}) {
		t.Fatalf("should not match")
	}
}

func TestAppendQuery(t *testing.T) {
	db := New()
	l1 := Labels{"metric": "cpu", "env": "a"}
	l2 := Labels{"metric": "cpu", "env": "b"}
	for i := int64(0); i < 10; i++ {
		if err := db.Append(l1, i*10, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Append(l2, 5, 99); err != nil {
		t.Fatal(err)
	}
	if db.NumSeries() != 2 {
		t.Fatalf("NumSeries = %d", db.NumSeries())
	}
	all := db.Query(Labels{"metric": "cpu"}, 0, 1<<62)
	if len(all) != 2 {
		t.Fatalf("query all: %d series", len(all))
	}
	one := db.Query(Labels{"env": "a"}, 20, 50)
	if len(one) != 1 || len(one[0].Samples) != 4 {
		t.Fatalf("range query wrong: %+v", one)
	}
	if one[0].Samples[0].T != 20 || one[0].Samples[3].T != 50 {
		t.Fatalf("range bounds wrong")
	}
	if empty := db.Query(Labels{"env": "a"}, 200, 300); len(empty) != 0 {
		t.Fatalf("out-of-range query should be empty")
	}
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	db := New()
	l := Labels{"m": "x"}
	if err := db.Append(l, 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(l, 50, 2); err == nil {
		t.Fatalf("out-of-order append should fail")
	}
	if err := db.Append(l, 100, 3); err != nil {
		t.Fatalf("equal timestamp should be accepted: %v", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := Labels{"g": string(rune('a' + g))}
			for i := int64(0); i < 100; i++ {
				_ = db.Append(l, i, float64(i))
			}
		}(g)
	}
	wg.Wait()
	if db.NumSeries() != 8 {
		t.Fatalf("NumSeries = %d", db.NumSeries())
	}
	for _, s := range db.Query(Labels{}, 0, 1<<62) {
		if len(s.Samples) != 100 {
			t.Fatalf("series %v has %d samples", s.Labels, len(s.Samples))
		}
	}
}

func TestParseExposition(t *testing.T) {
	input := `# HELP cpu_usage CPU usage
cpu_usage{env="e1",iface="eth0"} 42.5 1000
cpu_usage{env="e1",iface="eth0"} 43.5 1010
net_tx 17
`
	series, err := ParseExposition(strings.NewReader(input), 555)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series count %d", len(series))
	}
	cpu := series[0]
	if cpu.Labels["__name__"] != "cpu_usage" || cpu.Labels["iface"] != "eth0" {
		t.Fatalf("labels wrong: %v", cpu.Labels)
	}
	if len(cpu.Samples) != 2 || cpu.Samples[1].V != 43.5 || cpu.Samples[1].T != 1010 {
		t.Fatalf("samples wrong: %+v", cpu.Samples)
	}
	if series[1].Samples[0].T != 555 {
		t.Fatalf("default timestamp not applied")
	}
}

func TestParseExpositionErrors(t *testing.T) {
	bad := []string{
		`cpu{env="x" 42`,     // unterminated labels
		`cpu{env=x} 42`,      // unquoted value
		`cpu 42 notatime`,    // bad timestamp
		`cpu notanumber`,     // bad value
		`cpu{env="x"} 1 2 3`, // too many fields
		`{env="x"} 42`,       // missing name
	}
	for _, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in), 0); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
}

// TestExpositionLabelValuesSurviveMerge: the quality gauges' env label
// carries the client's testbed / SUT strings verbatim. A '}', a quote, a
// backslash or a newline in one must neither blank the page nor gain a
// layer of backslashes per hop: backend page → proxy merge → tsdb scrape.
func TestExpositionLabelValuesSurviveMerge(t *testing.T) {
	values := []string{"tb}1/fw", `a"b`, `a\b`, "a\nb", `{x="y"}, z=1`, "plain"}
	reg := obs.NewRegistry()
	for i, v := range values {
		reg.Gauge("env2vec_quality_exceed_rate", "Exceedance rate.", obs.Labels{"env": v}).Set(float64(i))
	}
	var page bytes.Buffer
	if _, err := reg.WriteTo(&page); err != nil {
		t.Fatal(err)
	}
	backend, err := ParseExposition(&page, 7)
	if err != nil {
		t.Fatalf("backend page rejected: %v\n%s", err, page.String())
	}
	var merged bytes.Buffer
	if err := MergeExpositions(&merged, "backend", map[string][]Series{"b0:8081": backend}); err != nil {
		t.Fatal(err)
	}
	scraped, err := ParseExposition(&merged, 7)
	if err != nil {
		t.Fatalf("merged page rejected: %v\n%s", err, merged.String())
	}
	got := make(map[string]float64, len(scraped))
	for _, s := range scraped {
		if s.Labels["backend"] != "b0:8081" {
			t.Fatalf("series lost its backend tag: %v", s.Labels)
		}
		got[s.Labels["env"]] = s.Samples[0].V
	}
	for i, v := range values {
		if g, ok := got[v]; !ok || g != float64(i) {
			t.Errorf("env %q: got %v (present %v), want %d; scraped %v", v, g, ok, i, scraped)
		}
	}
	if len(got) != len(values) {
		t.Errorf("scraped %d env values, want %d: %v", len(got), len(values), got)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	in := []Series{
		{Labels: Labels{"__name__": "cpu", "env": "e1"}, Samples: []Sample{{T: 1, V: 2.5}, {T: 2, V: 3}}},
		{Labels: Labels{"__name__": "mem"}, Samples: []Sample{{T: 5, V: 7}}},
	}
	var b strings.Builder
	if err := WriteExposition(&b, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseExposition(strings.NewReader(b.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Samples[0].V != 2.5 || out[1].Labels["__name__"] != "mem" {
		t.Fatalf("round trip wrong: %+v", out)
	}
}

// Property: exposition write→parse preserves sample values and label sets.
func TestExpositionRoundTripProperty(t *testing.T) {
	f := func(v float64, ts int64, envRaw uint8) bool {
		if ts < 0 {
			ts = -ts
		}
		env := string(rune('a' + envRaw%26))
		in := []Series{{
			Labels:  Labels{"__name__": "m", "env": env},
			Samples: []Sample{{T: ts, V: v}},
		}}
		var b strings.Builder
		if err := WriteExposition(&b, in); err != nil {
			return false
		}
		out, err := ParseExposition(strings.NewReader(b.String()), 0)
		if err != nil || len(out) != 1 {
			return false
		}
		s := out[0]
		return s.Labels["env"] == env && s.Samples[0].T == ts &&
			(s.Samples[0].V == v || (v != v && s.Samples[0].V != s.Samples[0].V))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSDConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sd.json")
	entries := []SDEntry{{Targets: []string{"1.2.3.4:9100"}, Labels: map[string]string{"env": "EM_17"}}}
	if err := WriteSDConfig(path, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSDConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Targets[0] != "1.2.3.4:9100" || got[0].Labels["env"] != "EM_17" {
		t.Fatalf("round trip wrong: %+v", got)
	}
	if err := AppendSDTarget(path, "5.6.7.8:9100", map[string]string{"env": "EM_18"}); err != nil {
		t.Fatal(err)
	}
	got, _ = ReadSDConfig(path)
	if len(got) != 2 {
		t.Fatalf("append failed: %+v", got)
	}
	// Appending to a missing file creates it.
	fresh := filepath.Join(dir, "fresh.json")
	if err := AppendSDTarget(fresh, "host:1", nil); err != nil {
		t.Fatal(err)
	}
	got, _ = ReadSDConfig(fresh)
	if len(got) != 1 {
		t.Fatalf("fresh append failed")
	}
}

func TestScraperEndToEnd(t *testing.T) {
	// A fake exporter target.
	exporter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte("cpu_usage{iface=\"eth0\"} 55 100\n"))
	}))
	defer exporter.Close()

	dir := t.TempDir()
	sd := filepath.Join(dir, "sd.json")
	target := strings.TrimPrefix(exporter.URL, "http://")
	if err := WriteSDConfig(sd, []SDEntry{{Targets: []string{target}, Labels: map[string]string{"env": "EM_1"}}}); err != nil {
		t.Fatal(err)
	}

	db := New()
	s := NewScraper(db, sd, time.Second)
	s.Now = func() int64 { return 100 }
	n, err := s.ScrapeOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ingested %d samples", n)
	}
	series := db.Query(Labels{"env": "EM_1"}, 0, 1<<62)
	if len(series) != 1 || series[0].Samples[0].V != 55 {
		t.Fatalf("scraped series wrong: %+v", series)
	}
	if series[0].Labels["instance"] != target {
		t.Fatalf("instance label missing")
	}
	scrapes, errs := s.Stats()
	if scrapes != 1 || errs != 0 {
		t.Fatalf("stats wrong: %d/%d", scrapes, errs)
	}
}

func TestScraperSkipsDownTargets(t *testing.T) {
	dir := t.TempDir()
	sd := filepath.Join(dir, "sd.json")
	if err := WriteSDConfig(sd, []SDEntry{{Targets: []string{"127.0.0.1:1"}, Labels: nil}}); err != nil {
		t.Fatal(err)
	}
	db := New()
	s := NewScraper(db, sd, time.Second)
	s.Client.Timeout = 200 * time.Millisecond
	n, err := s.ScrapeOnce(context.Background())
	if err != nil {
		t.Fatalf("down target should not fail the cycle: %v", err)
	}
	if n != 0 {
		t.Fatalf("no samples expected")
	}
	_, errs := s.Stats()
	if errs != 1 {
		t.Fatalf("error not counted")
	}
}

// TestHTTPMetricsDump: /metrics re-exposes every stored series and parses
// back.
func TestHTTPMetricsDump(t *testing.T) {
	db := New()
	_ = db.Append(Labels{"metric": "cpu", "env": "e1"}, 10, 1)
	_ = db.Append(Labels{"metric": "cpu", "env": "e1"}, 20, 2)
	_ = db.Append(Labels{"metric": "cpu", "env": "e2"}, 10, 3)
	srv := httptest.NewServer(&Handler{DB: db})
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dumped, err := ParseExposition(resp.Body, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumped) != 2 || len(dumped[0].Samples) != 2 {
		t.Fatalf("dump: %+v", dumped)
	}
}

func TestScraperRunStopsOnCancel(t *testing.T) {
	dir := t.TempDir()
	sd := filepath.Join(dir, "sd.json")
	_ = WriteSDConfig(sd, nil)
	s := NewScraper(New(), sd, 10*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.Run(ctx)
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("Run did not stop on cancel")
	}
}

func TestParseExpositionExemplarSuffix(t *testing.T) {
	input := `latency_ms_bucket{le="10"} 7 # {request_id="abc123"} 5.2
latency_ms_bucket{le="+Inf"} 9 1234 # {request_id="def456"} 99
`
	series, err := ParseExposition(strings.NewReader(input), 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series count %d: %+v", len(series), series)
	}
	if series[0].Samples[0].V != 7 || series[0].Samples[0].T != 77 {
		t.Fatalf("exemplar suffix corrupted sample: %+v", series[0].Samples[0])
	}
	// A timestamp before the exemplar still parses.
	if series[1].Samples[0].V != 9 || series[1].Samples[0].T != 1234 {
		t.Fatalf("timestamp+exemplar sample wrong: %+v", series[1].Samples[0])
	}
}
