// External test package: internal/proxy imports tsdb, so the fleet
// round-trip below must live outside package tsdb to avoid the cycle.
package tsdb_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"env2vec/internal/core"
	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/proxy"
	"env2vec/internal/quality"
	"env2vec/internal/serve"
	"env2vec/internal/tsdb"
)

func newScrapeBackend(t *testing.T, seed int64) *httptest.Server {
	t.Helper()
	cfg := core.Config{In: 3, Hidden: 8, GRUHidden: 4, EmbedDim: 3, Window: 2, Seed: seed}
	schema := envmeta.NewSchema()
	schema.Observe(envmeta.Environment{Testbed: "tb1", SUT: "fw", Testcase: "load", Build: "B1"})
	schema.Freeze()
	s := serve.New(serve.Config{MaxBatch: 8, QueueDepth: 64, Workers: 1, Quality: &quality.Config{}})
	t.Cleanup(s.Close)
	s.SetBundle(&serve.Bundle{
		Name: "test", Version: 1,
		Model:    core.New(cfg, schema),
		Schema:   schema,
		YScale:   dataset.YScaler{Mu: 50, Sigma: 10},
		Baseline: &quality.Baseline{Mu: 0, Sigma: 5, Samples: 100},
	})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

// TestScrapeProxyMergedExposition is the monitoring-pipeline round trip:
// tsdb's scraper pulls the proxy's fleet-merged /metrics page (its own
// series plus every backend's, tagged backend="host:port") into a DB, and
// queries must separate the two backends by label — no collisions where
// both backends' identically-named series merge into one.
func TestScrapeProxyMergedExposition(t *testing.T) {
	b0, b1 := newScrapeBackend(t, 7), newScrapeBackend(t, 11)
	p := proxy.New(proxy.Config{Backends: []string{b0.URL, b1.URL}, RetryBackoff: time.Millisecond})
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	// Spread some traffic so both backends have nonzero serve counters.
	for i := 0; i < 16; i++ {
		body := fmt.Sprintf(`{"cf":[1,2,3],"window":[50,51],"testbed":"tb1","sut":"fw","testcase":"load","build":"B%d"}`, i)
		resp, err := http.Post(front.URL+"/predict", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, resp.StatusCode)
		}
	}

	sd := filepath.Join(t.TempDir(), "sd.json")
	proxyHost := strings.TrimPrefix(front.URL, "http://")
	if err := tsdb.WriteSDConfig(sd, []tsdb.SDEntry{{Targets: []string{proxyHost}, Labels: map[string]string{"env": "fleet-1"}}}); err != nil {
		t.Fatal(err)
	}
	db := tsdb.New()
	sc := tsdb.NewScraper(db, sd, time.Second)
	n, err := sc.ScrapeOnce(context.Background())
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if n == 0 {
		t.Fatal("scrape ingested zero samples from the merged page")
	}

	// Each backend's serve counters land as distinct series under its
	// backend label; the discovery labels ride along.
	series := db.Query(tsdb.Labels{"__name__": "env2vec_serve_requests_total", "outcome": "served"}, 0, time.Now().Unix()+1)
	backends := map[string]bool{}
	for _, sr := range series {
		be := sr.Labels["backend"]
		if be == "" {
			t.Fatalf("backend-sourced series missing the backend label: %v", sr.Labels)
		}
		if backends[be] {
			t.Fatalf("backend %q appears in two series for one matcher — label collision: %v", be, series)
		}
		backends[be] = true
		if sr.Labels["instance"] != proxyHost || sr.Labels["env"] != "fleet-1" {
			t.Fatalf("scrape labels not attached: %v", sr.Labels)
		}
		if len(sr.Samples) == 0 || sr.Samples[0].V <= 0 {
			t.Fatalf("backend %q scraped a zero served counter: %+v", be, sr.Samples)
		}
	}
	if len(backends) != 2 {
		t.Fatalf("got %d backend-labelled series, want both backends: %v", len(backends), backends)
	}

	// The proxy's own telemetry is on the same page, un-tagged.
	own := db.Query(tsdb.Labels{"__name__": "env2vec_proxy_requests_total", "outcome": "served"}, 0, time.Now().Unix()+1)
	if len(own) != 1 {
		t.Fatalf("proxy's own served counter: %d series, want 1", len(own))
	}
	if own[0].Labels["backend"] != "" {
		t.Fatalf("proxy's own series wrongly tagged with a backend label: %v", own[0].Labels)
	}
	if own[0].Samples[0].V != 16 {
		t.Fatalf("proxy served counter scraped as %v, want 16", own[0].Samples[0].V)
	}
}
