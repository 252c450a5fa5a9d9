package pipeline

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"env2vec/internal/dataset"
	"env2vec/internal/modelserver"
	"env2vec/internal/nn"
	"env2vec/internal/serve"
)

// TestReplicationEndToEnd extends the publish-then-serve exercise across a
// replica tier: the training pipeline publishes to a primary registry, a
// durable replica converges on it, a serving daemon's Watcher polls the
// replica (never the primary), and /predict answers through the replica
// match a daemon fed straight from the primary — including after a
// re-publish and after the replica restarts from its own disk.
func TestReplicationEndToEnd(t *testing.T) {
	corpus := smallCorpus(t)
	tr, err := Train(corpus.Dataset, nil, quickTrainerConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Primary registry, published to by the training pipeline.
	primary := modelserver.NewRegistry()
	primarySrv := httptest.NewServer(&modelserver.Handler{Registry: primary, Now: func() int64 { return 1 }})
	defer primarySrv.Close()
	client := &modelserver.Client{BaseURL: primarySrv.URL}
	if v, err := PublishForServing(client, "env2vec", tr); err != nil || v != 1 {
		t.Fatalf("publish: %d %v", v, err)
	}

	// Durable replica follows the primary.
	replicaDir := t.TempDir()
	replicaReg, err := modelserver.OpenRegistry(modelserver.WithDir(replicaDir))
	if err != nil {
		t.Fatal(err)
	}
	replica := &modelserver.Replica{Client: client, Registry: replicaReg}
	if pulled, err := replica.Sync(); err != nil || pulled != 1 {
		t.Fatalf("replica sync: %d %v", pulled, err)
	}
	replicaSrv := httptest.NewServer(&modelserver.Handler{Registry: replicaReg})
	defer replicaSrv.Close()

	// Two serving daemons: one watching the primary (the reference), one
	// watching the replica (the topology under test).
	newServer := func(baseURL string) (*serve.Server, *modelserver.Watcher) {
		srv := serve.New(serve.Config{MaxBatch: 8, QueueDepth: 64, Workers: 2})
		w := &modelserver.Watcher{
			Client: &modelserver.Client{BaseURL: baseURL},
			Name:   "env2vec",
			OnUpdate: func(snap *nn.Snapshot, ver int) {
				b, err := serve.BundleFromSnapshot("env2vec", ver, snap)
				if err != nil {
					t.Errorf("bundle v%d: %v", ver, err)
					return
				}
				srv.SetBundle(b)
			},
		}
		if changed, err := w.Poll(); err != nil || !changed {
			t.Fatalf("initial poll of %s: changed=%v err=%v", baseURL, changed, err)
		}
		return srv, w
	}
	srvPrimary, primaryWatcher := newServer(primarySrv.URL)
	defer srvPrimary.Close()
	srvReplica, replicaWatcher := newServer(replicaSrv.URL)
	defer srvReplica.Close()

	// Requests from real execution windows.
	window := tr.Model.Config().Window
	var exs []dataset.Example
	for _, s := range corpus.Dataset.Series {
		exs = append(exs, dataset.WindowExamples(s, window)...)
		if len(exs) >= 16 {
			break
		}
	}
	exs = exs[:16]
	makeReq := func(ex dataset.Example) *serve.Request {
		return &serve.Request{
			CF:      append([]float64(nil), ex.CF...),
			Window:  append([]float64(nil), ex.Window...),
			Testbed: ex.Env.Testbed, SUT: ex.Env.SUT,
			Testcase: ex.Env.Testcase, Build: ex.Env.Build,
		}
	}

	assertParity := func(wantVersion int) {
		t.Helper()
		for i, ex := range exs {
			rp, code, err := srvPrimary.Do(makeReq(ex))
			if err != nil || code != http.StatusOK {
				t.Fatalf("primary request %d: %d %v", i, code, err)
			}
			rr, code, err := srvReplica.Do(makeReq(ex))
			if err != nil || code != http.StatusOK {
				t.Fatalf("replica request %d: %d %v", i, code, err)
			}
			if math.Abs(rp.Prediction-rr.Prediction) > 1e-12 {
				t.Fatalf("request %d: replica-served %v, primary-served %v", i, rr.Prediction, rp.Prediction)
			}
			if rp.ModelVersion != wantVersion || rr.ModelVersion != wantVersion {
				t.Fatalf("request %d: versions %d/%d, want %d", i, rp.ModelVersion, rr.ModelVersion, wantVersion)
			}
		}
	}
	assertParity(1)

	// The real HTTP surface agrees too: POST /predict against the
	// replica-fed daemon answers with the same prediction as Do.
	httpSrv := httptest.NewServer(srvReplica)
	defer httpSrv.Close()
	body, _ := json.Marshal(makeReq(exs[0]))
	resp, err := http.Post(httpSrv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ref, _, _ := srvReplica.Do(makeReq(exs[0]))
	if math.Abs(got.Prediction-ref.Prediction) > 1e-12 {
		t.Fatalf("HTTP /predict %v diverges from Do %v", got.Prediction, ref.Prediction)
	}

	// A re-publish flows primary → replica → replica-fed daemon.
	if v, err := PublishForServing(client, "env2vec", tr); err != nil || v != 2 {
		t.Fatalf("republish: %d %v", v, err)
	}
	if pulled, err := replica.Sync(); err != nil || pulled != 1 {
		t.Fatalf("replica resync: %d %v", pulled, err)
	}
	if changed, err := replicaWatcher.Poll(); err != nil || !changed {
		t.Fatalf("replica watcher reload: changed=%v err=%v", changed, err)
	}
	if changed, err := primaryWatcher.Poll(); err != nil || !changed {
		t.Fatalf("primary watcher reload: changed=%v err=%v", changed, err)
	}
	assertParity(2)

	// Replica restart: its disk alone reproduces the converged state.
	if err := replicaReg.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := modelserver.OpenRegistry(modelserver.WithDir(replicaDir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rec := reopened.RecoveredRecords(); rec != 0 {
		t.Fatalf("replica restart quarantined %d records", rec)
	}
	v, err := reopened.Latest("env2vec")
	if err != nil || v.Number != 2 {
		t.Fatalf("replica lost versions across restart: %+v %v", v, err)
	}
	primaryV, _ := primary.Get("env2vec", 2)
	if !bytes.Equal(v.Data, primaryV.Data) {
		t.Fatal("replica bytes diverge from primary after restart")
	}
}
