package modelserver

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"env2vec/internal/nn"
)

func demoSnapshot(seed int64) *nn.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	p := nn.NewParam("w", 3, 3)
	p.Value.RandNormal(rng, 1)
	return nn.TakeSnapshot([]*nn.Param{p}, map[string]string{"seed": "x"})
}

func TestRegistryPublishLatestGet(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Latest("m"); err == nil {
		t.Fatalf("empty registry should error")
	}
	n1, err := r.Publish("m", demoSnapshot(1), 100)
	if err != nil || n1 != 1 {
		t.Fatalf("publish: %d %v", n1, err)
	}
	n2, _ := r.Publish("m", demoSnapshot(2), 200)
	if n2 != 2 {
		t.Fatalf("version not incremented")
	}
	latest, err := r.Latest("m")
	if err != nil || latest.Number != 2 {
		t.Fatalf("latest wrong: %+v %v", latest, err)
	}
	v1, err := r.Get("m", 1)
	if err != nil || v1.Created != 100 {
		t.Fatalf("get v1 wrong")
	}
	if _, err := r.Get("m", 3); err == nil {
		t.Fatalf("missing version should error")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "m" {
		t.Fatalf("names wrong: %v", names)
	}
}

func TestHTTPPublishFetchRoundTrip(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(&Handler{Registry: reg, Now: func() int64 { return 7 }})
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	snap := demoSnapshot(3)
	n, err := c.Publish("env2vec", snap)
	if err != nil || n != 1 {
		t.Fatalf("publish: %d %v", n, err)
	}
	fetched, ver, err := c.FetchLatest("env2vec")
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Fatalf("version header wrong: %d", ver)
	}
	p := nn.NewParam("w", 3, 3)
	if err := fetched.Restore([]*nn.Param{p}); err != nil {
		t.Fatal(err)
	}
	orig := nn.NewParam("w", 3, 3)
	if err := snap.Restore([]*nn.Param{orig}); err != nil {
		t.Fatal(err)
	}
	if !p.Value.SameShape(orig.Value) || !slices.Equal(p.Value.Data, orig.Value.Data) {
		t.Fatalf("weights differ after HTTP round trip")
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(&Handler{Registry: NewRegistry()})
	defer srv.Close()

	// Fetch missing model → 404.
	resp, _ := http.Get(srv.URL + "/models/none/latest")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing model status %d", resp.StatusCode)
	}
	// Invalid snapshot body → 400.
	resp2, _ := http.Post(srv.URL+"/models/m", "application/octet-stream", http.NoBody)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad snapshot status %d", resp2.StatusCode)
	}
	// Bad version number → 400.
	resp3, _ := http.Get(srv.URL + "/models/m/notanumber")
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad version status %d", resp3.StatusCode)
	}
	// Bad path → 404.
	resp4, _ := http.Get(srv.URL + "/other")
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("bad path status %d", resp4.StatusCode)
	}
	// Wrong method shape → 405.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/models/m/latest", nil)
	resp5, _ := http.DefaultClient.Do(req)
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method status %d", resp5.StatusCode)
	}
	// Client surfaces non-201 publish errors.
	c := &Client{BaseURL: srv.URL + "/missingprefix"}
	if _, err := c.Publish("m", demoSnapshot(1)); err == nil {
		t.Fatalf("client publish should surface errors")
	}
	if _, _, err := (&Client{BaseURL: srv.URL}).FetchLatest("none"); err == nil {
		t.Fatalf("client fetch should surface errors")
	}
}

func TestVersionsIsolatedPerName(t *testing.T) {
	r := NewRegistry()
	_, _ = r.Publish("a", demoSnapshot(1), 1)
	n, _ := r.Publish("b", demoSnapshot(2), 2)
	if n != 1 {
		t.Fatalf("names must version independently, got %d", n)
	}
}
