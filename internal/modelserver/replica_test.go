package modelserver

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"env2vec/internal/obs"
)

func TestVersionsEndpoint(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Publish("a", demoSnapshot(1), 1); err != nil {
		t.Fatal(err)
	}
	_, _ = reg.Publish("a", demoSnapshot(2), 2)
	_, _ = reg.Publish("b", demoSnapshot(3), 3)
	srv := httptest.NewServer(&Handler{Registry: reg})
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/versions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if models["a"] != 2 || models["b"] != 1 {
		t.Fatalf("vector models wrong: %v", models)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("vector has no ETag")
	}

	// Unchanged vector → 304 on If-None-Match.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/versions", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("unchanged vector status %d, want 304", resp2.StatusCode)
	}

	// A publish invalidates the tag.
	_, _ = reg.Publish("b", demoSnapshot(4), 4)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("changed vector status %d, want 200", resp3.StatusCode)
	}

	// Wrong method on /versions.
	resp4, err := http.Post(srv.URL+"/versions", "text/plain", http.NoBody)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /versions status %d", resp4.StatusCode)
	}
}

func TestReplicaSyncPullsAndShortCircuits(t *testing.T) {
	primary := NewRegistry()
	srv := httptest.NewServer(&Handler{Registry: primary, Now: func() int64 { return 42 }})
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	if _, err := client.Publish("a", demoSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	_, _ = client.Publish("a", demoSnapshot(2))
	_, _ = client.Publish("b", demoSnapshot(3))

	oreg := obs.NewRegistry()
	var syncedPulls []int
	local := NewRegistry()
	rp := (&Replica{
		Client:   client,
		Registry: local,
		OnSync:   func(pulled int) { syncedPulls = append(syncedPulls, pulled) },
	}).Instrument(oreg)

	pulled, err := rp.Sync()
	if err != nil || pulled != 3 {
		t.Fatalf("first sync: %d %v", pulled, err)
	}
	// Replicated versions keep their numbers, bytes, and created stamps.
	for _, want := range []struct {
		name string
		num  int
		seed int64
	}{{"a", 1, 1}, {"a", 2, 2}, {"b", 1, 3}} {
		v, err := local.Get(want.name, want.num)
		if err != nil {
			t.Fatalf("replica missing %s v%d: %v", want.name, want.num, err)
		}
		data, _ := demoSnapshot(want.seed).Bytes()
		if !bytes.Equal(v.Data, data) || v.Created != 42 {
			t.Fatalf("replica mangled %s v%d", want.name, want.num)
		}
	}

	// Second sync is a header exchange only.
	if pulled, err := rp.Sync(); err != nil || pulled != 0 {
		t.Fatalf("idle sync: %d %v", pulled, err)
	}
	if rp.m.notModified.Value() != 1 {
		t.Fatalf("idle sync did not take the 304 path (%d)", rp.m.notModified.Value())
	}

	// New versions land incrementally, not as a full re-pull.
	_, _ = client.Publish("a", demoSnapshot(4))
	if pulled, err := rp.Sync(); err != nil || pulled != 1 {
		t.Fatalf("incremental sync: %d %v", pulled, err)
	}
	if rp.m.pulls.Value() != 4 {
		t.Fatalf("pulls counter %d, want 4", rp.m.pulls.Value())
	}
	if len(syncedPulls) != 3 || syncedPulls[0] != 3 || syncedPulls[1] != 0 || syncedPulls[2] != 1 {
		t.Fatalf("OnSync saw %v", syncedPulls)
	}

	// A replica can itself be a primary: chain a second tier off the first.
	tier2 := NewRegistry()
	srv2 := httptest.NewServer(&Handler{Registry: local})
	defer srv2.Close()
	rp2 := &Replica{Client: &Client{BaseURL: srv2.URL}, Registry: tier2}
	if pulled, err := rp2.Sync(); err != nil || pulled != 4 {
		t.Fatalf("tier-2 sync: %d %v", pulled, err)
	}
}

// TestReplicaSyncsAfterPrimaryLostATail pins why the GET /versions ETag
// hashes the name → latest map rather than counting commits. The replica
// holds {a:3, b:3}; the primary's torn tail takes b v3 away and a restart
// publishes a v4, so the primary is at {a:4, b:2} after six commits — the
// same count as before. The replica must see a change and pull a v4.
func TestReplicaSyncsAfterPrimaryLostATail(t *testing.T) {
	dir := t.TempDir()
	primary := openDurable(t, dir)
	publishK(t, primary, []string{"a", "b"}, 3) // the log ends with b v3
	srv := httptest.NewServer(&Handler{Registry: primary})
	defer srv.Close()
	local := NewRegistry()
	rp := &Replica{Client: &Client{BaseURL: srv.URL}, Registry: local}
	if pulled, err := rp.Sync(); err != nil || pulled != 6 {
		t.Fatalf("first sync: %d %v", pulled, err)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	path := filepath.Join(dir, logName)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	reopened := openDurable(t, dir)
	defer reopened.Close()
	if v, err := reopened.Latest("b"); err != nil || v.Number != 2 {
		t.Fatalf("torn tail not dropped: %+v %v", v, err)
	}
	if n, err := reopened.Publish("a", demoSnapshot(4), 400); err != nil || n != 4 {
		t.Fatalf("publish after recovery: v%d %v", n, err)
	}
	srv2 := httptest.NewServer(&Handler{Registry: reopened})
	defer srv2.Close()
	rp.Client = &Client{BaseURL: srv2.URL}
	if pulled, err := rp.Sync(); err != nil || pulled != 1 {
		t.Fatalf("sync after the primary's recovery pulled %d (%v), want 1", pulled, err)
	}
	if v, err := local.Latest("a"); err != nil || v.Number != 4 || v.Created != 400 {
		t.Fatalf("replica latest a: %+v %v", v, err)
	}
}

func TestReplicaSurfacesErrors(t *testing.T) {
	rp := &Replica{}
	if _, err := rp.Sync(); err == nil {
		t.Fatal("nil client/registry accepted")
	}
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	rp = &Replica{Client: &Client{BaseURL: srv.URL}, Registry: NewRegistry()}
	if _, err := rp.Sync(); err == nil {
		t.Fatal("404 vector accepted")
	}
}

// TestReadOnlyHandlerRefusesPublish pins the replica's HTTP surface: a
// follower that accepted a local publish would take a version number the
// primary later assigns to different bytes, so POST must fail loudly
// while every read route keeps working.
func TestReadOnlyHandlerRefusesPublish(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Publish("env2vec", demoSnapshot(1), 1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&Handler{Registry: reg, ReadOnly: true})
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/models/env2vec", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("publish to read-only handler: %d %q", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "publish to the primary") {
		t.Fatalf("unhelpful refusal: %q", body)
	}
	if v, err := reg.Latest("env2vec"); err != nil || v.Number != 1 {
		t.Fatalf("refused publish mutated the registry: %+v %v", v, err)
	}

	c := &Client{BaseURL: srv.URL}
	if _, ver, err := c.FetchLatest("env2vec"); err != nil || ver != 1 {
		t.Fatalf("read-only fetch: v%d %v", ver, err)
	}
	if latest, _, _, err := c.FetchVersions("", 0); err != nil || latest["env2vec"] != 1 {
		t.Fatalf("read-only vector: %v %v", latest, err)
	}
}
