// Command bench runs the repository's fixed performance suite — the
// Monte-Carlo kernel, the streaming batch aggregation, the detailed
// substrate engine (memoized one-shot vs compiled batch), the API
// sweep engine, the durable job path, the adaptive-precision executor
// with its equal-CI fixed-budget comparison, the distributed fabric's
// coordination overhead, and the replication plane's quorum tax on the
// durable job path — and writes a machine-readable JSON report, so
// every PR extends a comparable perf trajectory (BENCH_PR10.json is
// this PR's committed snapshot). The Monte-Carlo kernel is reported
// twice — runner_throughput (the scalar Runner: stepwise replay,
// inverse-CDF draws) and engine_throughput (the lane kernel:
// closed-form replay, ziggurat draws) — so the committed report shows
// what the lane kernel buys.
//
// Usage:
//
//	go run ./cmd/bench [-short] [-out bench.json] \
//	    [-baseline BENCH_PR10.json] [-max-regress 0.25] \
//	    [-cpuprofile cpu.pprof]
//
// With -baseline, the measured headline ns/op rows are compared
// against the committed report and the process exits non-zero when
// any regressed by more than -max-regress (CI's regression gate).
// With -cpuprofile, the benchmark loop runs under the CPU profiler;
// the resulting profile is what cmd/bench/default.pgo is built from
// (go build -pgo picks it up for the release binary).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Metric is one benchmark's result row.
type Metric struct {
	Name     string             `json:"name"`
	NsOp     float64            `json:"ns_op"`
	AllocsOp int64              `json:"allocs_op"`
	BytesOp  int64              `json:"bytes_op"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// Report is the JSON document cmd/bench writes.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	Short      bool     `json:"short"`
	Benchmarks []Metric `json:"benchmarks"`
	// PR1Baseline records the seed engine's numbers (before this PR's
	// zero-allocation kernel), measured interleaved with the new code
	// on the same machine, so the report carries its own before/after.
	PR1Baseline map[string]Metric `json:"pr1_baseline"`
}

// pr1Baseline is the historical record of the pre-optimization engine
// (PR 1 state), measured with interleaved A/B runs on the machine that
// produced the committed BENCH_PR2.json. It is embedded so the
// before/after comparison travels with every report.
var pr1Baseline = map[string]Metric{
	"engine_throughput": {
		Name:     "engine_throughput",
		NsOp:     340831, // mean of 3 interleaved rounds
		AllocsOp: 5,
		BytesOp:  752,
		Extra:    map[string]float64{"failures/sec": 1.68e6},
	},
	"batch_runmany_2048": {
		Name:     "batch_runmany_2048",
		NsOp:     71066345,
		AllocsOp: 10247,
		BytesOp:  1720609,
	},
}

// throughputConfig is the fixed kernel workload, identical to
// bench_test.go's BenchmarkEngineThroughput.
func throughputConfig(short bool) sim.Config {
	cfg := sim.Config{
		Protocol: core.DoubleNBL,
		Params:   scenario.Base().Params.WithMTBF(1800),
		Phi:      1,
		Tbase:    1e6,
	}
	if short {
		cfg.Tbase = 1e5
	}
	return cfg
}

// metric converts a BenchmarkResult.
func metric(name string, r testing.BenchmarkResult) Metric {
	m := Metric{
		Name:     name,
		NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		m.Extra = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			m.Extra[k] = v
		}
	}
	return m
}

// benchEngineThroughput measures the production Monte-Carlo path: the
// lane-batched SoA kernel with the closed-form fault-free fast-forward
// and the ziggurat sampler — the per-run cost RunMany's workers pay —
// reported per run: compile once, then drive full-width RunBatch
// calls. Reports up to and including BENCH_PR6 measured sim.Run (a
// compile plus one scalar run per call) under this name; the scalar
// layer lives on as runner_throughput.
func benchEngineThroughput(short bool) Metric {
	batch, err := sim.Compile(throughputConfig(short))
	if err != nil {
		fatal(err)
	}
	lr, err := batch.NewLaneRunner(sim.DefaultLaneWidth)
	if err != nil {
		fatal(err)
	}
	w := lr.Width()
	seeds := make([]uint64, w)
	out := make([]sim.Result, w)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i += w {
			for j := range seeds {
				seeds[j] = uint64(i + j)
			}
			lr.RunBatch(seeds, nil, out)
			for j := range out {
				total += out[j].Failures
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(total)/secs, "failures/sec")
		}
	})
	return metric("engine_throughput", res)
}

// benchRunnerThroughput measures the compiled-batch kernel (the
// steady-state zero-allocation path RunMany executes).
func benchRunnerThroughput(short bool) Metric {
	batch, err := sim.Compile(throughputConfig(short))
	if err != nil {
		fatal(err)
	}
	r := batch.NewRunner()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i++ {
			total += r.Run(uint64(i)).Failures
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(total)/secs, "failures/sec")
		}
	})
	return metric("runner_throughput", res)
}

// benchBatchRunMany measures the parallel streaming aggregation over a
// 2048-run batch (256 with -short).
func benchBatchRunMany(short bool) Metric {
	cfg := throughputConfig(true) // Tbase 1e5 keeps the batch bounded
	cfg.Seed = 42
	runs := 2048
	name := "batch_runmany_2048"
	if short {
		runs = 256
		name = "batch_runmany_256"
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		failures := 0.0
		for i := 0; i < b.N; i++ {
			agg, err := sim.RunMany(cfg, runs)
			if err != nil {
				b.Fatal(err)
			}
			failures += agg.Failures.Mean() * float64(agg.Failures.N())
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(runs*b.N)/secs, "runs/sec")
			b.ReportMetric(failures/secs, "failures/sec")
		}
	})
	return metric(name, res)
}

// detailedThroughputConfig is the fixed detailed-engine workload: a
// moderate platform (the substrates are O(N) per failure) with enough
// failures per run to exercise the cluster, registry and restore
// queue.
func detailedThroughputConfig(short bool) sim.DetailedConfig {
	cfg := sim.DetailedConfig{
		Protocol: core.DoubleNBL,
		Params:   scenario.Base().Params.WithNodes(240).WithMTBF(600),
		Phi:      1,
		Tbase:    2e4,
	}
	if short {
		cfg.Tbase = 5e3
	}
	return cfg
}

// benchDetailedRun measures per-call sim.RunDetailed: compilation plus
// a full substrate rebuild (cluster, checkpoint registry, schedule)
// on every run — the shape of the pre-batch detailed engine.
func benchDetailedRun(short bool) Metric {
	cfg := detailedThroughputConfig(short)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i)
			r, err := sim.RunDetailed(cfg)
			if err != nil {
				b.Fatal(err)
			}
			total += r.Failures
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(total)/secs, "failures/sec")
		}
	})
	return metric("detailed_run", res)
}

// benchDetailedRunner measures the compiled detailed batch path: the
// substrates are built once by CompileDetailed/NewRunner and rewound
// in place between runs.
func benchDetailedRunner(short bool) Metric {
	batch, err := sim.CompileDetailed(detailedThroughputConfig(short))
	if err != nil {
		fatal(err)
	}
	r := batch.NewRunner()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i++ {
			dr, err := r.Run(uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			total += dr.Failures
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(total)/secs, "failures/sec")
		}
	})
	return metric("detailed_runner", res)
}

// benchSweep measures the API sweep engine end to end: grid expansion,
// batch compilation (cache-cold per iteration thanks to a fresh seed),
// parallel point evaluation and aggregation.
func benchSweep(short bool) Metric {
	svc := api.NewService(api.Options{})
	runs := 8
	if short {
		runs = 2
	}
	seed := uint64(0)
	const points = 8 // 2 protocols × 2 φ points × 2 MTBFs
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seed++ // new seed: every point misses the item cache
			req := api.SweepRequest{
				Protocols: []string{"DoubleNBL", "Triple"},
				PhiFracs:  []float64{0.25, 0.75},
				MTBFs:     []float64{1800, 3600},
				Tbase:     2e4,
				Runs:      runs,
				Seed:      seed,
			}
			items, _, err := svc.Sweep(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if len(items) != points {
				b.Fatalf("got %d points, want %d", len(items), points)
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(points*b.N)/secs, "points/sec")
		}
	})
	return metric("sweep_points", res)
}

// benchJobOverhead measures the durable job path end to end: submit a
// fresh content-keyed job (normalize + store create), schedule it onto
// the job runner, execute its 4-point sweep through the shared pool
// with checkpointed (fsynced) NDJSON results, and wait for the
// terminal state. The same grid shape as benchSweep, so the delta
// between the two metrics is the durability overhead per job.
func benchJobOverhead(short bool) Metric {
	svc := api.NewService(api.Options{})
	dir, err := os.MkdirTemp("", "bench-jobs-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	mgr, err := jobs.NewManager(jobs.Config{
		Dir:             dir,
		MaxConcurrent:   2,
		CheckpointEvery: 4,
		Exec:            svc.JobExecutor(),
		Normalize:       svc.NormalizeJobRequest,
	})
	if err != nil {
		fatal(err)
	}
	defer mgr.Close()
	tbase := 20000
	runs := 8
	if short {
		tbase = 10000
		runs = 2
	}
	const points = 4 // 2 φ points × 2 MTBFs
	seed := 0
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed++ // fresh seed: a new job id and a cache-cold grid
			body := fmt.Sprintf(`{"protocols": ["DoubleNBL"], "phiFracs": [0.25, 0.75],
				"mtbfs": [1800, 3600], "tbase": %d, "runs": %d, "seed": %d}`, tbase, runs, seed)
			meta, created, err := mgr.Submit([]byte(body))
			if err != nil {
				b.Fatal(err)
			}
			if !created {
				b.Fatalf("job %s deduped; the seed should be fresh", meta.ID)
			}
			final, err := mgr.Wait(context.Background(), meta.ID)
			if err != nil {
				b.Fatal(err)
			}
			if final.State != jobs.Done || final.Completed != points {
				b.Fatalf("job finished as %+v", final)
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(points*b.N)/secs, "points/sec")
		}
	})
	return metric("job_overhead", res)
}

// benchReplicationOverhead measures the replication tax on the durable
// job path: the benchJobOverhead workload executed by a manager whose
// checkpoints must reach a write quorum of two in-process HTTP replicas
// (a 3-node fleet's worth), versus the same manager unreplicated. NsOp
// is the replicated job; Extra carries the unreplicated ns/op and the
// overhead ratio — the framing, CRC check, HTTP round trips and quorum
// wait per checkpoint, which is the cost every HA deployment pays.
func benchReplicationOverhead(short bool) Metric {
	newMgr := func(svc *api.Service, dir string, repl jobs.ReplicationSink) *jobs.Manager {
		mgr, err := jobs.NewManager(jobs.Config{
			Dir:             dir,
			MaxConcurrent:   2,
			CheckpointEvery: 4,
			Exec:            svc.JobExecutor(),
			Normalize:       svc.NormalizeJobRequest,
			Replicate:       repl,
		})
		if err != nil {
			fatal(err)
		}
		return mgr
	}
	jobLoop := func(mgr *jobs.Manager, seed *int) func(b *testing.B) {
		tbase, runs := 20000, 8
		if short {
			tbase, runs = 10000, 2
		}
		const points = 4 // 2 φ points × 2 MTBFs
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				*seed++ // fresh seed: a new job id and a cache-cold grid
				body := fmt.Sprintf(`{"protocols": ["DoubleNBL"], "phiFracs": [0.25, 0.75],
					"mtbfs": [1800, 3600], "tbase": %d, "runs": %d, "seed": %d}`, tbase, runs, *seed)
				meta, created, err := mgr.Submit([]byte(body))
				if err != nil {
					b.Fatal(err)
				}
				if !created {
					b.Fatalf("job %s deduped; the seed should be fresh", meta.ID)
				}
				final, err := mgr.Wait(context.Background(), meta.ID)
				if err != nil {
					b.Fatal(err)
				}
				if final.State != jobs.Done || final.Completed != points {
					b.Fatalf("job finished as %+v", final)
				}
			}
		}
	}
	tmp := func() string {
		dir, err := os.MkdirTemp("", "bench-repl-*")
		if err != nil {
			fatal(err)
		}
		return dir
	}
	dirs := []string{tmp(), tmp(), tmp()}
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()

	// Two replica peers, each a real store behind a real HTTP server.
	peers := make([]string, 2)
	servers := make([]*httptest.Server, 2)
	for i := range peers {
		store, err := jobs.NewStore(dirs[i])
		if err != nil {
			fatal(err)
		}
		rp, err := fabric.NewReplica(fabric.ReplicaConfig{Store: store})
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		rp.Routes(mux)
		servers[i] = httptest.NewServer(mux)
		peers[i] = servers[i].URL
	}
	defer func() {
		for _, ts := range servers {
			ts.Close()
		}
	}()
	leaderStore, err := jobs.NewStore(dirs[2])
	if err != nil {
		fatal(err)
	}
	repl, err := fabric.NewReplicator(fabric.ReplicatorConfig{
		Self:  "http://bench-leader",
		Peers: peers,
		Store: leaderStore,
	})
	if err != nil {
		fatal(err)
	}

	seed := 1 << 24
	svc := api.NewService(api.Options{})
	mgr := newMgr(svc, dirs[2], repl)
	res := testing.Benchmark(jobLoop(mgr, &seed))
	mgr.Close()

	plainDir := tmp()
	defer os.RemoveAll(plainDir)
	plain := newMgr(svc, plainDir, nil)
	plainRes := testing.Benchmark(jobLoop(plain, &seed))
	plain.Close()

	m := metric("replication_overhead", res)
	if m.Extra == nil {
		m.Extra = make(map[string]float64)
	}
	plainNs := float64(plainRes.T.Nanoseconds()) / float64(plainRes.N)
	m.Extra["unreplicated_ns_op"] = plainNs
	m.Extra["overhead_ratio"] = m.NsOp / plainNs
	return m
}

// adaptiveBenchGrid compiles the representative 3-backend grid of the
// adaptive-vs-fixed comparison: fast points spanning the variance
// spectrum (hostile, moderate and healthy MTBFs on one platform), a
// detailed point, and a multilevel point. The platform is shrunk to 96
// ranks so all three backends simulate the same physical machine.
func adaptiveBenchGrid(short bool) ([]engine.Batch, error) {
	tbase := 1e4
	if short {
		tbase = 5e3
	}
	p := scenario.Base().Params.WithNodes(96)
	mk := func(eng engine.Engine, mtbf float64, global *engine.Global) (engine.Batch, error) {
		q := p.WithMTBF(mtbf)
		req := engine.Request{
			Protocol: core.DoubleNBL,
			Params:   q,
			Phi:      0.25 * q.R,
			Tbase:    tbase,
			Global:   global,
		}
		resolved, err := eng.Resolve(req)
		if err != nil {
			return nil, err
		}
		return eng.Compile(resolved)
	}
	var batches []engine.Batch
	for _, pt := range []struct {
		eng    engine.Engine
		mtbf   float64
		global *engine.Global
	}{
		{engine.Fast{}, 600, nil},
		{engine.Fast{}, 3600, nil},
		{engine.Fast{}, 28800, nil},
		{engine.Detailed{}, 600, nil},
		{engine.Multilevel{}, 900, &engine.Global{G: 50, Rg: 50}},
	} {
		b, err := mk(pt.eng, pt.mtbf, pt.global)
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
	}
	return batches, nil
}

// adaptiveSearchResult caches the equal-precision fixed budgets per
// workload size: the search simulates far more than either timed
// side, and the regression gate re-invokes benchAdaptive at the
// baseline's size — the memo keeps that re-measure from paying the
// search twice in one process.
type adaptiveSearchResult struct {
	adaptiveRuns, fixedRuns int
	fixedBudget             []int
}

var adaptiveSearchMemo = map[bool]adaptiveSearchResult{}

// benchAdaptive measures the adaptive-precision executor on the
// 3-backend grid and computes its equal-precision comparison against
// fixed budgets: for every point, the smallest doubling fixed budget
// whose raw CI95 matches the adaptive run's achieved (variance-
// reduced) CI is searched, and the totals — runs and wall-clock — are
// reported in Extra. NsOp is the adaptive evaluation of the full grid.
func benchAdaptive(short bool) Metric {
	batches, err := adaptiveBenchGrid(short)
	if err != nil {
		fatal(err)
	}
	spec := engine.Precision{TargetRelErr: 0.05, MinRuns: 8, MaxRuns: 4096}
	const seed, fixedCap = 42, 1 << 15

	search, ok := adaptiveSearchMemo[short]
	if !ok {
		adaptiveRuns := 0
		for _, b := range batches {
			ar, err := engine.RunAdaptive(b, seed, spec, 0)
			if err != nil {
				fatal(err)
			}
			adaptiveRuns += ar.RunsUsed
			n := spec.MinRuns
			for {
				agg, err := engine.RunMany(b, seed, n, 0)
				if err != nil {
					fatal(err)
				}
				if agg.Waste.CI95() <= ar.CI95 {
					break
				}
				if n >= fixedCap {
					// Even the cap cannot match the variance-reduced CI;
					// charging the fixed side only the cap understates the
					// savings, so say so instead of silently pretending
					// equality.
					fmt.Printf("adaptive: fixed budget capped at %d runs with CI %.3g > adaptive %.3g; savings understated\n",
						n, agg.Waste.CI95(), ar.CI95)
					break
				}
				n *= 2
			}
			search.fixedBudget = append(search.fixedBudget, n)
			search.fixedRuns += n
		}
		search.adaptiveRuns = adaptiveRuns
		adaptiveSearchMemo[short] = search
	}
	adaptiveRuns, fixedRuns, fixedBudget := search.adaptiveRuns, search.fixedRuns, search.fixedBudget

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, batch := range batches {
				if _, err := engine.RunAdaptive(batch, seed, spec, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(adaptiveRuns*b.N)/secs, "runs/sec")
		}
	})
	fixedRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, batch := range batches {
				if _, err := engine.RunMany(batch, seed, fixedBudget[j], 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	m := metric("adaptive_sweep", res)
	if m.Extra == nil {
		m.Extra = make(map[string]float64)
	}
	m.Extra["adaptive_runs"] = float64(adaptiveRuns)
	m.Extra["fixed_runs_equal_ci"] = float64(fixedRuns)
	m.Extra["run_savings"] = float64(fixedRuns) / float64(adaptiveRuns)
	fixedNs := float64(fixedRes.T.Nanoseconds()) / float64(fixedRes.N)
	m.Extra["fixed_ns_op_equal_ci"] = fixedNs
	m.Extra["wallclock_savings"] = fixedNs / m.NsOp
	return m
}

// benchFabricOverhead measures the distributed fabric's coordination
// tax: the benchSweep grid executed through a coordinator over three
// in-process HTTP workers versus the same grid evaluated in-process.
// NsOp is the distributed sweep; Extra carries the single-node ns/op
// and the overhead ratio (partitioning + HTTP dispatch + merge, which
// dominates at this deliberately small grid — the point is to keep the
// fixed per-sweep cost on the trajectory, not to show speedup).
func benchFabricOverhead(short bool) Metric {
	runs := 8
	if short {
		runs = 2
	}
	servers := make([]*httptest.Server, 3)
	urls := make([]string, len(servers))
	for i := range servers {
		servers[i] = httptest.NewServer(api.NewServer(api.NewService(api.Options{})))
		urls[i] = servers[i].URL
	}
	defer func() {
		for _, ts := range servers {
			ts.Close()
		}
	}()
	coord, err := fabric.New(fabric.Config{Service: api.NewService(api.Options{}), Workers: urls})
	if err != nil {
		fatal(err)
	}
	const points = 8 // 2 protocols × 2 φ points × 2 MTBFs
	seed := uint64(1 << 20)
	mkReq := func() api.SweepRequest {
		seed++ // fresh seed: every point misses every worker's cache
		return api.SweepRequest{
			Protocols: []string{"DoubleNBL", "Triple"},
			PhiFracs:  []float64{0.25, 0.75},
			MTBFs:     []float64{1800, 3600},
			Tbase:     2e4,
			Runs:      runs,
			Seed:      seed,
		}
	}
	single := api.NewService(api.Options{})
	singleRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			items, _, err := single.Sweep(context.Background(), mkReq())
			if err != nil {
				b.Fatal(err)
			}
			if len(items) != points {
				b.Fatalf("got %d points, want %d", len(items), points)
			}
		}
	})
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(mkReq())
			if err != nil {
				b.Fatal(err)
			}
			got := 0
			err = coord.SweepStreamFrom(context.Background(), body, 0, nil, func([]byte) error {
				got++
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if got != points {
				b.Fatalf("got %d points, want %d", got, points)
			}
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(points*b.N)/secs, "points/sec")
		}
	})
	m := metric("fabric_overhead", res)
	if m.Extra == nil {
		m.Extra = make(map[string]float64)
	}
	singleNs := float64(singleRes.T.Nanoseconds()) / float64(singleRes.N)
	m.Extra["single_node_ns_op"] = singleNs
	m.Extra["overhead_ratio"] = m.NsOp / singleNs
	return m
}

// gatedBench describes one benchmark the regression gate checks. The
// fast kernel's alloc gate is absolute (+allocSlack): its hot path is
// allocation-free, so any per-run allocation is a regression. The
// detailed engine allocates proportionally to the failure sample
// (cluster Buddies slices, registry map growth), so its alloc gate is
// relative, like the time gate.
type gatedBench struct {
	name      string
	measure   func(short bool) Metric
	required  bool // error when missing from the baseline
	relAllocs bool // relative (1+maxRegress) alloc gate instead of +allocSlack
}

var gatedBenches = []gatedBench{
	{name: "engine_throughput", measure: benchEngineThroughput, required: true},
	// The batch aggregation rides the same lane kernel.
	{name: "batch_runmany_2048", measure: benchBatchRunMany, relAllocs: true},
	{name: "detailed_runner", measure: benchDetailedRunner, relAllocs: true},
	// The job path allocates per submission (request decode, store
	// writes), so its alloc gate is relative like the detailed one. Not
	// required: baselines older than PR 4 do not carry it.
	{name: "job_overhead", measure: benchJobOverhead, relAllocs: true},
	// The adaptive executor allocates per round (runner construction,
	// chunk buffers), so its alloc gate is relative too. Not required:
	// baselines older than PR 5 do not carry it.
	{name: "adaptive_sweep", measure: benchAdaptive, relAllocs: true},
	// The fabric path allocates per dispatch (HTTP requests, merge
	// buffers), so its alloc gate is relative. Not required: baselines
	// older than PR 6 do not carry it.
	{name: "fabric_overhead", measure: benchFabricOverhead, relAllocs: true},
	// The replicated job path allocates per checkpoint (frames, HTTP
	// requests, quorum fan-out), so its alloc gate is relative. Not
	// required: baselines older than PR 10 do not carry it.
	{name: "replication_overhead", measure: benchReplicationOverhead, relAllocs: true},
}

// gate compares the measured headline benchmarks against a committed
// report and returns an error when any regressed beyond maxRegress.
// ns/op is only comparable at equal workload sizes, so when the sizes
// differ (a -short CI run against a committed full-size snapshot) the
// gated benchmarks are re-measured once at the baseline's size.
//
// Caveat: the time gate compares against numbers measured on whatever
// machine produced the committed report; across very different
// hardware the threshold may need tuning (the fast kernel's absolute
// allocs/op gate never does).
func gate(rep Report, baselinePath string, maxRegress float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench: reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench: parsing baseline: %w", err)
	}
	find := func(ms []Metric, name string) *Metric {
		for i := range ms {
			if ms[i].Name == name {
				return &ms[i]
			}
		}
		return nil
	}
	for _, gb := range gatedBenches {
		want := find(base.Benchmarks, gb.name)
		if want == nil {
			if gb.required {
				return fmt.Errorf("bench: %s missing from baseline", gb.name)
			}
			fmt.Printf("gate: %s not in baseline %s; skipping\n", gb.name, baselinePath)
			continue
		}
		got := find(rep.Benchmarks, gb.name)
		if rep.Short != base.Short {
			// Workload sizes (and size-suffixed names, like the batch
			// aggregation row) only compare at the baseline's size.
			fmt.Printf("gate: re-measuring %s at the baseline's workload size\n", gb.name)
			m := gb.measure(base.Short)
			got = &m
		}
		if got == nil {
			return fmt.Errorf("bench: %s missing from measurement", gb.name)
		}
		if gb.relAllocs {
			// Relative bound with a small absolute floor, so a tiny
			// baseline (the batch runner is ~1 alloc/op) doesn't turn
			// inliner jitter into a failure.
			limit := int64(float64(want.AllocsOp) * (1 + maxRegress))
			if floor := want.AllocsOp + 8; floor > limit {
				limit = floor
			}
			if got.AllocsOp > limit {
				return fmt.Errorf("bench: %s allocates %d/op, committed baseline is %d/op (limit %d)",
					gb.name, got.AllocsOp, want.AllocsOp, limit)
			}
		} else {
			// Per-op alloc counts drift by a few across Go versions'
			// inliner and escape analysis; real kernel regressions (an
			// allocation back on the per-failure path) show up as
			// hundreds per op.
			const allocSlack = 8
			if got.AllocsOp > want.AllocsOp+allocSlack {
				return fmt.Errorf("bench: %s allocates %d/op, committed baseline is %d/op (+%d slack)",
					gb.name, got.AllocsOp, want.AllocsOp, allocSlack)
			}
		}
		limit := want.NsOp * (1 + maxRegress)
		if got.NsOp > limit {
			return fmt.Errorf("bench: %s regressed: %.0f ns/op > %.0f ns/op (baseline %.0f +%d%%)",
				gb.name, got.NsOp, limit, want.NsOp, int(maxRegress*100))
		}
		fmt.Printf("gate ok: %s %.0f ns/op within %.0f ns/op (baseline %.0f +%d%%), %d allocs/op\n",
			gb.name, got.NsOp, limit, want.NsOp, int(maxRegress*100), got.AllocsOp)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	short := flag.Bool("short", false, "smaller workloads (CI-sized)")
	out := flag.String("out", "bench.json", "output JSON path")
	baseline := flag.String("baseline", "", "committed report to gate engine_throughput against")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression vs -baseline")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark loop (PGO input)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	rep := Report{
		Schema:      "repro-bench/v1",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Short:       *short,
		PR1Baseline: pr1Baseline,
	}
	for _, run := range []func(bool) Metric{
		benchEngineThroughput,
		benchRunnerThroughput,
		benchBatchRunMany,
		benchDetailedRun,
		benchDetailedRunner,
		benchSweep,
		benchJobOverhead,
		benchAdaptive,
		benchFabricOverhead,
		benchReplicationOverhead,
	} {
		m := run(*short)
		fmt.Printf("%-22s %14.0f ns/op %8d allocs/op", m.Name, m.NsOp, m.AllocsOp)
		for k, v := range m.Extra {
			fmt.Printf("  %s=%.4g", k, v)
		}
		fmt.Println()
		rep.Benchmarks = append(rep.Benchmarks, m)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *baseline != "" {
		if err := gate(rep, *baseline, *maxRegress); err != nil {
			fatal(err)
		}
	}
}
