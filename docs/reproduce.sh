#!/bin/sh
# Regenerates every experiment output recorded in EXPERIMENTS.md.
# On a single commodity core the whole script takes ~45 minutes.
set -e
mkdir -p docs/outputs
# gated_bench NAME MAX_REGRESS PATTERN PKG...: run the benchmarks into
# docs/outputs/bench_NAME.txt.new, gate them with benchjson -compare against
# the committed docs/outputs/BENCH_NAME.json (any allocs/op growth, or ns/op
# more than MAX_REGRESS percent slower, refuses), and move both .new files
# into place only when the gate passes. A refused run deletes both .new
# files, leaves the committed pair as it was and exits nonzero.
gated_bench() {
    name=$1 max=$2 pattern=$3
    shift 3
    txt=docs/outputs/bench_$name.txt
    json=docs/outputs/BENCH_$name.json
    if go test -run '^$' -bench "$pattern" -benchmem -count 1 "$@" > "$txt.new" &&
        cat "$txt.new" &&
        go run ./cmd/benchjson -compare "$json" -max-regress "$max" < "$txt.new" > "$json.new"; then
        mv "$txt.new" "$txt"
        mv "$json.new" "$json"
    else
        rm -f "$txt.new" "$json.new"
        echo "gated_bench $name: refused; $txt and $json are unchanged" >&2
        exit 1
    fi
}
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi
go vet ./...
# Nothing is declared in internal/ or cmd/ that only tests reach.
go run ./scripts/exportcheck
# The serving path is the one place with real concurrency: prove it race-free.
# quality and alarmstore sit on that same path (async alarm delivery).
go test -race ./internal/obs/ ./internal/serve/ ./internal/modelserver/ \
    ./internal/quality/ ./internal/alarmstore/
# The registry's durability story — see docs/serving.md. Fuzz the log
# replay in memory (it never panics, its intact prefix replays whole), then
# prove the replication path end to end: train -> publish -> replica converges ->
# a daemon watching the replica answers /predict identically to one
# watching the primary. The -race battery above already covers the
# concurrent publish/get/sync registry test.
go test -run FuzzStoreReplay -fuzz FuzzStoreReplay -fuzztime 10s ./internal/modelserver/
go test -run 'ReplicationEndToEnd|PublishThenServe' ./internal/pipeline/
# The serve worker's forward stage stays allocation-free (PredictInto), and
# a forward pass itself allocates nothing: n passes of 1 cost what one pass
# of n costs (the workers own their scratch; docs/serving.md "Batching").
go test -run 'ForwardStageAllocs|PassCostsNoAllocations' ./internal/serve/
# Workers pull their own batches: a lone request is forwarded at once, a
# wire frame is one pass at any GOMAXPROCS, overflow sheds only the tail,
# Close answers the backlog, and a backlog behind a busy worker is one pass.
go test -race -run 'TestIdleServerForwardsAtOnce|TestDoBatchFrameIsOnePass|TestDoBatchShedsOnlyTail|TestCloseAnswersQueuedRequests|TestBacklogBehindBusyWorkerIsOnePass' ./internal/serve/
# The repository benchmark's harness is a nested module tier 1 does not
# compile; it is built against serve.Config and the public constructors.
# Vet it, short-test it, and run each of the four workloads for two seconds:
# a tree the harness cannot run is rejected with no numbers at all.
scripts/benchsmoke.sh
# Smoke-test the /metrics surface end to end: boot each daemon, scrape it.
# The e2vserve scrape asserts the quality metrics; the serve suite's
# /metrics round trip runs every exposition page (exemplar suffixes
# included) through tsdb.ParseExposition.
go test -run 'MetricsScrape' ./cmd/e2vserve/ ./cmd/tsdbd/
# The quality loop end to end: drift inject -> alarm in the store -> /quality.
go test -run 'QualityLoop|ObserveClosesTheLoop' ./internal/serve/
# Load harness drives a live server and reads back /statz stage p99s
# (multi-target mode included).
go test -run 'LoadGenerator' ./cmd/e2vload/
# The fleet front tier: ring/affinity/failover unit battery plus the
# kill-a-backend e2e (two live serve.Servers behind the proxy, one killed
# mid-load; zero client-visible errors, deterministic re-homing, fleet
# /quality and /metrics reflect the survivor, and the trace store retains
# the failed-attempt + failover span trees within its capacity bound) —
# all under -race.
go vet ./cmd/e2vproxy
go test -race ./internal/proxy/...
go test -race -run 'TestE2EKillBackendFailover' ./internal/proxy/
# Distributed tracing: tail-sampling policy and store bounds, the serve
# side's stage spans parenting onto an inbound traceparent, the proxy
# stitching backend spans into one cross-process tree, and tsdb scraping
# the proxy's merged backend-labelled exposition without label collisions.
go test -race ./internal/obs/ -run 'TraceStore|TraceParent|Span'
go test -race -run 'TestPredictSpansParentOntoTraceparent|TestShedRequestTraceRetained' ./internal/serve/
go test -race -run 'TestProxyTrace|TestProxyFailoverTraceSpans|TestProxyShedTraceRetained|TestProxySelfLatencyMetrics|TestE2EStitchedTraceAcrossProcesses' ./internal/proxy/
go test -race -run 'TestScrapeProxyMergedExposition' ./internal/tsdb/
# Registry long-poll: parked /versions and /latest pollers wake on publish.
go test -race -run 'LongPoll' ./internal/modelserver/
# The fused inference path: race-prove the scratch-arena pool, the
# tape/infer parity property, and the cross-precision battery (tape vs
# float64 predictor vs float32 predictor — docs/performance.md documents the
# per-path tolerances), then fuzz the parity contract briefly. One generic
# predictor serves both precisions, so the battery is joined by what pins it
# to the two it replaced: the float32 answers bit for bit against a golden
# written before the collapse, the float64 answers and a seeded training
# trajectory bit for bit against a golden written before the float64 logistic
# became a kernel, the exact malloc count of a pass, a finite
# input the model answers with NaN as a typed per-item 422 on every entry
# point, and the quick-scale science numbers at 1e-9 (the -race pass skips
# the allocation counts, so they run plain too). The training tape's GRU is
# one node: its states and every gradient are held bit for bit to the
# per-operation graph it replaced (gru_ref_test.go), over a table and under
# the fuzzer. The float32 bound is relative to the magnitude of the head's
# terms, which a cancelling head sum exceeds hundreds of times.
go test -race ./internal/infer/ ./internal/core/
go test -run 'TestFloat32BitIdenticalToGolden|TestFloat64BitIdenticalToGolden|TestInferTracksWeightMutation' ./internal/core/
go test -run 'TestExactZeroMallocsPerPass' ./internal/infer/
go test -run 'TestNonFinitePredictionIsTypedError|TestNonFiniteWindowFailsAlone' ./internal/wire/
go test -run 'TestQuickScienceNumbersPinned' ./internal/experiments/
go test -run 'TestGRUSequenceMatchesUnroll' ./internal/nn/
go test -run FuzzPredictParity -fuzz FuzzPredictParity -fuzztime 10s ./internal/core/
go test -run FuzzGRUSequence -fuzz FuzzGRUSequence -fuzztime 10s ./internal/nn/
# The vector kernels: the float64 tile bit for bit against the scalar kernel
# and the naive reference (TestF64TileMatchesScalar), the float32 GEMM tiles
# and the logistic (tensor.SigmoidAdd) against their scalar twins and
# float64, the float64 logistic (SigmoidAdd and Sigmoid) bit for bit against
# the Go expression — and again in a child process under GODEBUG=cpu.fma=off,
# where it must step aside for math.Exp's other sequence — the GRU
# elementwise kernels (AddReLU, GateMul, GateBlend) in both precisions at 0
# ulp of their Go loops with NaN, ±Inf, ±0 and subnormals in every operand
# position, the float64 GEMM's one-call driver and its add-on-store mode
# (MatMulAddInto, against the product followed by AddInPlace), the training
# step's kernels (ReLU, the two GRU backward sweeps, the bias column sum and
# Adam) against their Go loops and MatMulTAddInto against TransposeInto plus
# MatMulAddInto, and a fuzzer over each family (FuzzF64Kernels,
# FuzzTrainKernels); the float64 bit identity, and that of the float32
# GEMM's unfused 8-column group (TestF32EdgeTileMatchesScalar), again at
# GOAMD64=v3, where the compiler could fuse the Go tails into FMAs; then the
# same scalar code as the only path, built for 386 (runs
# natively on an amd64 box), so the !amd64 side of the CPUID selection —
# matMulScalar[T] for both element types — is executed and not just
# compiled, the tape, the arena and the layers with it, and the forest's
# one-fit grid search runs against its 24-fit oracle off amd64 too (the
# baselines, anomaly and pipeline packages ride along). arm64 is vetted,
# which type-checks its build of the packages.
go test -run 'TestBlocked|TestF32|TestF64|TestMatMul|TestSigmoid|TestSigmoidAdd64|TestSigmoid64UnderFMAOff|TestGate|TestAddReLU|TestTrain|TestReLU|TestArena' ./internal/tensor/
go test -run FuzzF64Kernels -fuzz FuzzF64Kernels -fuzztime 10s ./internal/tensor/
go test -run FuzzTrainKernels -fuzz FuzzTrainKernels -fuzztime 10s ./internal/tensor/
GOAMD64=v3 go test -run 'TestF64|TestF32EdgeTileMatchesScalar|TestGate|TestAddReLU|TestTrain|TestReLU|TestMatMulTAdd' ./internal/tensor/
GOAMD64=v3 go test -run 'TestFloat64BitIdenticalToGolden' ./internal/core/
GOAMD64=v3 go test -run 'TestGRUSequenceMatchesUnroll' ./internal/nn/
GOARCH=386 go test ./internal/tensor/ ./internal/infer/ ./internal/core/ ./internal/autodiff/ ./internal/nn/ ./internal/baselines/ ./internal/anomaly/ ./internal/pipeline/
GOARCH=arm64 go vet ./internal/tensor/ ./internal/infer/ ./internal/autodiff/ ./internal/nn/
# The tape's arena: a reused tape is a fresh tape (bit for bit, at op and at
# model scale), the pool is race-free, and the allocation pins hold.
go test -race ./internal/autodiff/ ./internal/nn/ ./internal/pipeline/
go test -run 'TestTrainStepAllocs|TestInferAllocations|TestInfer32Allocations|TestMisshapenNetworkPanicsAtConstruction' ./internal/infer/
# Commit machine-readable inference and training numbers (ns/op and
# allocs/op; fused vs tape vs float32, one train step, the float64 kernel at
# the training shapes) AND gate them against the committed baseline: benchjson
# -compare exits nonzero if any shared benchmark is >10% slower than
# docs/outputs/BENCH_infer.json or grew its allocs/op, so a perf regression
# fails reproduce.sh before the baseline is overwritten.
gated_bench infer 10 'Forward(Tape|Infer)|TrainStep|MatMulBlocked(32)?_(32|640)x|SigmoidAdd(32|64)|AddReLU(32|64)|Gate(Mul|Blend)(32|64)|AdamStep|GRUBackward' ./internal/infer/ ./internal/tensor/
# The monitoring plane (docs/observability.md "Monitoring plane"): query
# engine fixtures (counter-reset rate, histogram_quantile vs synthetic
# buckets), the rules engine's pending->firing state machine and hot
# reload under -race, retention/eviction, the parallel scrape pool, the
# dashboard render, and the full burn-rate e2e: live serve.Server behind
# a proxy, scraped by tsdb, error injection drives the fast-burn rule
# pending->firing, alarm lands in the alarmstore with source=slo. The
# query golden pins every shipped rule, panel and documented expression
# (plus an operator matrix and invalid-input error texts) bit for bit;
# FuzzParseExpr holds the parser to its pre-collapse reference and
# FuzzParseExposition holds label sets through a write->parse trip.
go test -race ./internal/tsdb/
go test -race -run 'TestMonitoringPlaneBurnRateE2E|TestQueryHTTPFixtures' ./internal/tsdb/
go test -run 'TestQueryGolden$|TestExpositionLabelValuesSurviveMerge|TestRulesReloadSameSizeSameMtime' ./internal/tsdb/
go test -run FuzzParseExposition -fuzz FuzzParseExposition -fuzztime 10s ./internal/tsdb/
go test -run 'FuzzParseExpr$' -fuzz 'FuzzParseExpr$' -fuzztime 10s ./internal/tsdb/
go test -run 'TestTSDBDMonitoringEndpoints|TestLoadGeneratorAlertsGate' ./cmd/tsdbd/ ./cmd/e2vload/
go test -run 'TestSourceFilter' ./internal/alarmstore/
# Serving-path benchmarks (a lone Do, parallel submitters, a saturated
# worker with its mean batch size, the /predict edge), gated like
# BENCH_infer.json: >10% slower than the committed baseline or any
# allocs/op growth fails before the baseline is overwritten. CI runs the
# same gate with ns/op at 100% (its runners are not this box). The
# benchmark servers drop every trace, so allocs/op is not a coin's.
gated_bench serve 10 'BenchmarkServe' ./internal/serve/
# The binary wire protocol (docs/serving.md "Binary wire protocol"): fuzz
# the frame + payload decoders (truncated / bit-flipped / oversized /
# interleaved frames are typed errors, never panics; a span section the
# decoder accepts always materialises), run the protocol battery under
# -race (codec round trips, golden v1 frames, client/server batch and
# subscribe modes, proxy wire front with the mixed JSON+binary+stream
# kill-a-backend e2e, concurrent fan-out of mixed frames, wire trace
# stitching, the verdict table both fronts must answer alike, the one
# server-side frame loop behind both listeners, subscribe failover and error
# relay through the splice, retained ids not pinning frames, the pending and
# sticky maps staying bounded when predictions are observed promptly and
# answering as the Go-map IDMap they replaced (FuzzIDMap holds them to the
# reference model in idmap_test.go), a negative body cap still capping, a
# 503 refusal not counted as a protocol error), then
# the allocation budgets the race detector would trip (a relayed frame costs
# a handful of allocations, a served frame four and a lone Do one, a JSON
# predict through the backend's handler and one through the proxy each their
# pinned count; one stage record renders one tree on the wire, in JSON and in
# the store; a sampled-out trace materialises no span on either front or on
# the backend), and fuzz the hand-rendered /predict reply against
# json.Marshal of the same answer (FuzzPredictReplyJSON),
# then commit the JSON-vs-binary codec and transport
# numbers (encode+decode at B8W20, and live round trips with p99s) gated
# against the committed baseline: any allocs/op growth fails, and ns/op gets
# a wide 25% bound because live round trips ride the box's phases.
go test -run FuzzWireDecode -fuzz FuzzWireDecode -fuzztime 10s ./internal/wire/
go test -run FuzzParseTraceParent -fuzz FuzzParseTraceParent -fuzztime 10s ./internal/obs/
go test -run FuzzIDMap -fuzz FuzzIDMap -fuzztime 10s ./internal/serve/
go test -run FuzzPredictReplyJSON -fuzz FuzzPredictReplyJSON -fuzztime 10s ./internal/serve/
go test -race ./internal/wire/
go test -race -run 'TestE2EWireMixedProtocolFailover|TestProxyBodyLimit|TestProxyErrorBodyCap|TestWireFanOut|TestProxyWireTraceStitchesBackendSpans|TestFrontsEmitSameFamiliesAndSpans|TestWireStickyIDsDoNotPinFrames|TestPreambleOneBehaviour|TestWireSubscribe|TestStickyStaysBoundedWhenObserved' ./internal/proxy/
go test -race -run 'TestBodyLimits|TestStrictDecoding|TestDoBatch|TestPendingStaysBoundedWhenObserved|TestIDMap|TestProtocolErrorsCountOnlyViolations' ./internal/serve/ ./internal/wire/
go test -run 'TestFrameAllocBudget|TestGoldenFrames|TestStageRecordRendersOneTree|TestWireDroppedTraceMaterialisesNoSpans|TestJSONDroppedTraceMaterialisesNoSpans|TestBackendDroppedTraceMaterialisesNoSpans|TestServeDoAllocs|TestDoBatchAllocs|TestPassCostsNoAllocations|TestIDsAllocateWhatTheyReturn|TestProxyRelayAllocs|TestJSONPredictAllocs|TestProxyJSONAllocs' ./internal/wire/ ./internal/proxy/ ./internal/serve/ ./internal/obs/
gated_bench wire 25 'EncodeDecode|RoundTrip' ./internal/wire/
# A setup_s or retrain_cycle delta between two builds of the benchmark means
# nothing until this says SAME PHASE (docs/performance.md, "A measurement
# trap"): print its verdict beside any such number.
#   scripts/aligncheck.sh <parent>/.bench_build/e2vbench .bench_build/e2vbench
# Non-test lines per package, raw and code (ROADMAP aim 2: every PR reports
# its net; `scripts/loc.sh HEAD~1` prints the delta against the parent).
scripts/loc.sh
go run ./cmd/kdnbench -seeds 2 | tee docs/outputs/kdnbench.txt
go run ./cmd/telecombench -slow -csv docs/outputs/figures | tee docs/outputs/telecombench.txt
