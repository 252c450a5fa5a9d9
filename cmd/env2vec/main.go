// Command env2vec is the operational CLI around the library: generate
// synthetic corpora, train the single generic model, detect anomalies in an
// execution CSV, and serve the trained model over HTTP.
//
// Subcommands:
//
//	env2vec generate -out DIR [-chains N] [-steps N] [-seed N]
//	    Write the synthetic telecom corpus as per-execution CSV files.
//
//	env2vec train -data DIR -model FILE [-epochs N] [-window N]
//	    Train Env2Vec on every CSV in DIR and save a model snapshot.
//
//	env2vec detect -data DIR -model FILE -exec FILE [-gamma F]
//	    Score one execution CSV against the trained model, printing alarms.
//
//	env2vec serve [-model FILE] [-registry-dir DIR] [-replica-of URL] -addr :8080
//	    Run a model-registry daemon: publish a snapshot, serve a durable
//	    (disk-backed, crash-recovering) registry, or follow a primary as
//	    a read-only replica.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"env2vec/internal/anomaly"
	"env2vec/internal/dataset"
	"env2vec/internal/modelserver"
	"env2vec/internal/nn"
	"env2vec/internal/pipeline"
	"env2vec/internal/serve"
	"env2vec/internal/telecom"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "env2vec:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: env2vec <generate|train|detect|serve> [flags]")
	os.Exit(2)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	out := fs.String("out", "", "output directory (required)")
	chains := fs.Int("chains", 24, "number of build chains")
	steps := fs.Int("steps", 60, "timesteps per execution")
	seed := fs.Int64("seed", 1, "corpus seed")
	_ = fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("generate: -out is required")
	}
	cfg := telecom.DefaultConfig()
	cfg.Chains = *chains
	cfg.StepsPerBuild = *steps
	cfg.Seed = *seed
	corpus := telecom.Generate(cfg)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	n := 0
	for _, s := range corpus.Dataset.Series {
		name := fmt.Sprintf("%s_%s.csv", strings.ReplaceAll(s.ChainID, "|", "_"), s.Env.Build)
		if err := dataset.SaveSeriesFile(filepath.Join(*out, name), s, corpus.Dataset.FeatureNames); err != nil {
			return err
		}
		n++
	}
	fmt.Printf("wrote %d execution CSVs to %s (%d chains × %d builds, %d steps each)\n",
		n, *out, cfg.Chains, cfg.BuildsPerChain, cfg.StepsPerBuild)
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	data := fs.String("data", "", "directory of execution CSVs (required)")
	model := fs.String("model", "env2vec.model", "output snapshot path")
	epochs := fs.Int("epochs", 20, "max training epochs")
	window := fs.Int("window", 4, "RU-history window")
	_ = fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("train: -data is required")
	}
	ds, err := dataset.LoadDir(*data)
	if err != nil {
		return err
	}
	cfg := pipeline.DefaultTrainerConfig(len(ds.FeatureNames))
	cfg.Train.Epochs = *epochs
	cfg.Model.Window = *window
	tr, err := pipeline.Train(ds, nil, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("trained on %d examples from %d executions; val MSE %.4f after %d epochs\n",
		tr.Examples, len(ds.Series), tr.Fit.FinalValLoss, tr.Fit.Epochs)
	snap := tr.Model.Snapshot()
	snap.Meta["window"] = fmt.Sprint(*window)
	// Embed the serving artifacts (config, vocab, scalers) so the snapshot
	// alone is enough for e2vserve to reconstruct a predictor.
	if err := serve.AttachArtifacts(snap, tr.Model.Config(), tr.Schema, tr.Standardizer, tr.YScale, tr.Baseline); err != nil {
		return err
	}
	if err := snap.SaveFile(*model); err != nil {
		return err
	}
	// Persist the preprocessing artifacts beside the weights.
	if err := saveArtifacts(*model+".artifacts", tr); err != nil {
		return err
	}
	fmt.Printf("saved model to %s\n", *model)
	return nil
}

// saveArtifacts stores the standardizer and target scale (gob via snapshot
// machinery would be overkill; a tiny CSV suffices and stays inspectable).
func saveArtifacts(path string, tr *pipeline.TrainResult) error {
	var b strings.Builder
	fmt.Fprintf(&b, "ymu,%g\nysigma,%g\n", tr.YScale.Mu, tr.YScale.Sigma)
	for j, m := range tr.Standardizer.Mean {
		fmt.Fprintf(&b, "feat%d,%g,%g\n", j, m, tr.Standardizer.Std[j])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	data := fs.String("data", "", "directory of historical execution CSVs (required)")
	execFile := fs.String("exec", "", "execution CSV to score (required)")
	gamma := fs.Float64("gamma", 2, "γ threshold (σ multiplier)")
	absFilter := fs.Float64("abs-filter", 5, "absolute CPU deviation filter (0 disables)")
	epochs := fs.Int("epochs", 20, "training epochs (model is retrained from -data)")
	window := fs.Int("window", 4, "RU-history window")
	_ = fs.Parse(args)
	if *data == "" || *execFile == "" {
		return fmt.Errorf("detect: -data and -exec are required")
	}
	ds, err := dataset.LoadDir(*data)
	if err != nil {
		return err
	}
	target, _, err := dataset.LoadSeriesFile(*execFile)
	if err != nil {
		return err
	}
	// Exclude the target execution from training if present in -data.
	exclude := map[*dataset.Series]bool{}
	for _, s := range ds.Series {
		if s.Env == target.Env && s.Len() == target.Len() {
			exclude[s] = true
		}
	}
	cfg := pipeline.DefaultTrainerConfig(len(ds.FeatureNames))
	cfg.Train.Epochs = *epochs
	cfg.Model.Window = *window
	tr, err := pipeline.Train(ds, exclude, cfg)
	if err != nil {
		return err
	}
	wf := pipeline.NewWorkflow(tr, anomaly.Config{Gamma: *gamma, AbsFilter: *absFilter})
	var history []*dataset.Series
	for _, s := range ds.Series {
		if s.ChainID == target.ChainID && !exclude[s] {
			history = append(history, s)
		}
	}
	if len(history) > 0 {
		wf.CalibrateChain(target.ChainID, history)
	} else {
		fmt.Println("note: no chain history found — using the execution's own error distribution (§4.3 unseen-environment mode)")
	}
	alarms := wf.ProcessExecution("env2vec", target)
	if len(alarms) == 0 {
		fmt.Println("no anomalies detected")
		return nil
	}
	fmt.Printf("%d alarm(s):\n", len(alarms))
	for _, a := range alarms {
		fmt.Printf("  %s\n", a)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "", "model snapshot to publish on start (optional with -registry-dir or -replica-of)")
	name := fs.String("name", "env2vec", "model name -model is published under")
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("registry-dir", "", "durable registry directory: replayed on start, every publish fsynced to its append-only log")
	replicaOf := fs.String("replica-of", "", "primary registry base URL; run as a read-only syncing replica")
	syncEvery := fs.Duration("sync", 10*time.Second, "replica sync interval (with -replica-of; long-poll fallback pacing)")
	longPoll := fs.Duration("long-poll", 30*time.Second, "park replica polls on the primary this long (?wait=); 0 = plain polling")
	_ = fs.Parse(args)
	if *model == "" && *dir == "" && *replicaOf == "" {
		return fmt.Errorf("serve: need -model, -registry-dir, or -replica-of")
	}
	if *model != "" && *replicaOf != "" {
		return fmt.Errorf("serve: -model and -replica-of are exclusive (replicas are read-only)")
	}
	var reg *modelserver.Registry
	if *dir != "" {
		var err error
		if reg, err = modelserver.OpenRegistry(modelserver.WithDir(*dir)); err != nil {
			return err
		}
		defer reg.Close()
		if rec := reg.RecoveredRecords(); rec > 0 {
			fmt.Fprintf(os.Stderr, "serve: quarantined %d torn log record(s) during replay of %s\n", rec, *dir)
		}
		if names := reg.Names(); len(names) > 0 {
			fmt.Printf("replayed registry %s: models %s\n", *dir, strings.Join(names, ", "))
		}
	} else {
		reg = modelserver.NewRegistry()
	}
	if *model != "" {
		snap, err := nn.LoadSnapshotFile(*model)
		if err != nil {
			return err
		}
		if _, err := reg.Publish(*name, snap, time.Now().Unix()); err != nil {
			return err
		}
	}
	if *replicaOf != "" {
		client := &modelserver.Client{BaseURL: *replicaOf}
		if *longPoll > 0 {
			client.HTTP = &http.Client{Timeout: *longPoll + 30*time.Second}
		}
		replica := &modelserver.Replica{
			Client:   client,
			Registry: reg,
			Interval: *syncEvery,
			LongPoll: *longPoll,
			OnError: func(err error) {
				fmt.Fprintln(os.Stderr, "serve: replica sync:", err)
			},
		}
		go replica.Run(context.Background())
		fmt.Printf("replicating %s every %s\n", *replicaOf, *syncEvery)
	}
	fmt.Printf("serving model registry on %s (GET /models/%s/latest, GET /versions)\n", *addr, *name)
	h := &modelserver.Handler{
		Registry: reg,
		Now:      func() int64 { return time.Now().Unix() },
		ReadOnly: *replicaOf != "",
	}
	return http.ListenAndServe(*addr, h)
}
