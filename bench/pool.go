package main

// The replayed traffic: every RU-history window of the newest build of
// every chain, with the observed value and the tape reference each answer
// is checked against, and the seeded orders the workloads replay it in.

import (
	"encoding/json"
	"math/rand"

	"env2vec/internal/dataset"
	"env2vec/internal/envmeta"
	"env2vec/internal/nn"
	"env2vec/internal/pipeline"
	"env2vec/internal/serve"
)

// window is one request of the pool and its oracle.
type window struct {
	req    serve.Request // without Actual: the wire workloads send it as is
	actual float64       // observed CPU, the mae's ground truth
	ref    float64       // core.Model.PredictTape, in CPU points
	body   []byte        // JSON of req with the inline actual (fleet_json_open)
}

// pool holds windowsPerExe windows per replayed execution, execution-major.
type pool struct {
	windows []window
	sigma   float64 // YScale.Sigma: tolerances are relative to it
}

func (p *pool) at(exe, k int) *window { return &p.windows[exe*windowsPerExe+k] }

func (p *pool) executions() int { return len(p.windows) / windowsPerExe }

// buildPool makes the pool from the replay executions. It does not
// depend on the seed: the seed picks the order (see the *Order functions).
func buildPool(m *model) (*pool, error) {
	p := &pool{sigma: m.tr.YScale.Sigma}
	for _, s := range m.replay {
		exs := dataset.WindowExamples(s, windowLen)
		refs := m.tr.YScale.Unscale(m.tr.Model.PredictTape(scaledBatch(m.tr, exs)))
		for i, ex := range exs {
			w := window{req: requestOf(ex), actual: ex.Y, ref: refs[i]}
			withActual := w.req
			withActual.Actual = &w.actual
			body, err := json.Marshal(&withActual)
			if err != nil {
				return nil, err
			}
			w.body = body
			p.windows = append(p.windows, w)
		}
	}
	return p, nil
}

// scaledBatch is a set of windows the way the model wants them:
// standardized features, scaled history.
func scaledBatch(tr *pipeline.TrainResult, exs []dataset.Example) *nn.Batch {
	batch := dataset.ToBatch(exs, tr.Schema)
	tr.Standardizer.Apply(batch.X)
	return tr.YScale.Scale(batch)
}

// requestOf is the prediction request for one window, without its actual.
func requestOf(ex dataset.Example) serve.Request {
	return serve.Request{
		CF: ex.CF, Window: ex.Window,
		Testbed: ex.Env.Testbed, SUT: ex.Env.SUT, Testcase: ex.Env.Testcase, Build: ex.Env.Build,
		ChainID: ex.ChainID,
	}
}

// envOf is the environment tuple a request names.
func envOf(r *serve.Request) envmeta.Environment {
	return envmeta.Environment{Testbed: r.Testbed, SUT: r.SUT, Testcase: r.Testcase, Build: r.Build}
}

// timestepOrder is one pass over the pool the way a fleet of testbeds
// reports: timestep by timestep, every execution once per timestep, in a
// seeded execution order and from a seeded starting step per execution.
// It returns indices into pool.windows; every window appears once.
func timestepOrder(seed int64, executions int) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(executions)
	start := make([]int, executions)
	for i := range start {
		start[i] = rng.Intn(windowsPerExe)
	}
	order := make([]int, 0, executions*windowsPerExe)
	for t := 0; t < windowsPerExe; t++ {
		for _, e := range perm {
			order = append(order, e*windowsPerExe+(t+start[e])%windowsPerExe)
		}
	}
	return order
}

// executionOrder is a seeded order of whole executions: the frames of
// batch_wire_closed, the streams of stream_wire_open (split evenly over
// its generators) and the scoring order of retrain_cycle.
func executionOrder(seed int64, executions int) []int {
	return rand.New(rand.NewSource(seed)).Perm(executions)
}
