// Command bench measures the rows perfbench's end-to-end workloads
// cannot isolate — the Monte-Carlo kernel, the streaming batch
// aggregation, the detailed engine's compiled batch and the
// replication plane's quorum tax on the durable job path — and writes a
// machine-readable JSON report, so every PR extends a comparable perf
// trajectory (BENCH_PR23.json is the committed snapshot). The kernel is
// reported twice — runner_throughput (the scalar Runner: stepwise
// replay, inverse-CDF draws) and engine_throughput (the lane kernel:
// closed-form failure-to-failure advance, ziggurat draws) — so the
// report shows what the lane kernel buys. Composed paths (API sweeps,
// jobs, the fabric, adaptive precision) are perfbench's.
//
// Usage:
//
//	go run ./cmd/bench [-out bench.json] [-baseline BENCH_PR23.json]
//
// Every row is sampled five times (the constant samples), round-robin,
// and reported as the median ns/op with the CI95 of the samples' mean. With -baseline,
// the rows run at GOMAXPROCS equal to the baseline's cpus, and the
// process exits non-zero when any row's median regressed by more than
// maxRegress or its allocations grew past the row's allocation rule
// (CI's regression gate). Without it they run at the current
// GOMAXPROCS, which is what a fresh baseline records as cpus.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

const (
	// samples is the number of testing.Benchmark runs per row. A
	// median of five ignores up to two slow samples, and a real
	// regression moves all of them.
	samples = 5
	// maxRegress is the allowed fractional regression of a row's
	// median ns/op, and of the relative allocation rule.
	maxRegress = 0.25
	// allocSlack absorbs the few allocs/op that Go versions' inliner
	// and escape analysis move; a real regression (an allocation back
	// on the per-failure path) shows up as hundreds per op.
	allocSlack = 8
)

// Metric is one benchmark's result row.
type Metric struct {
	Name string `json:"name"`
	// NsOp is the median of NsSamples; CI95 is the 95 % half-width
	// of their mean.
	NsOp      float64            `json:"ns_op"`
	CI95      float64            `json:"ci95_ns_op"`
	NsSamples []float64          `json:"ns_samples"`
	AllocsOp  int64              `json:"allocs_op"`
	BytesOp   int64              `json:"bytes_op"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

// Report is the JSON document cmd/bench writes. CPUs is the
// GOMAXPROCS the rows ran at.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	Benchmarks []Metric `json:"benchmarks"`
}

// row is one benchmark of the suite. Every row is gated. The lane
// kernel's alloc gate is absolute (+allocSlack): its hot path is
// allocation-free, so any per-run allocation is a regression. The
// other rows allocate with the work they do (chunk aggregates,
// detailed substrates, requests and frames), so theirs is relative.
type row struct {
	name      string
	sample    func() Metric
	relAllocs bool
}

var rows = []row{
	{name: "engine_throughput", sample: benchEngineThroughput},
	{name: "runner_throughput", sample: benchRunnerThroughput, relAllocs: true},
	{name: "batch_runmany_2048", sample: benchBatchRunMany, relAllocs: true},
	{name: "detailed_runner", sample: benchDetailedRunner, relAllocs: true},
	// Stays until perfbench benchmarks a replicated job.
	{name: "replication_overhead", sample: benchReplicationOverhead, relAllocs: true},
}

// throughputConfig is the fixed kernel workload, identical to
// bench_test.go's BenchmarkEngineThroughput.
func throughputConfig() sim.Config {
	return sim.Config{
		Protocol: core.DoubleNBL,
		Params:   scenario.Base().Params.WithMTBF(1800),
		Phi:      1,
		Tbase:    1e6,
	}
}

// metric converts a BenchmarkResult into a one-sample row.
func metric(r testing.BenchmarkResult) Metric {
	return Metric{
		NsOp:     nsOp(r),
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
		Extra:    r.Extra,
	}
}

func nsOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// benchEngineThroughput measures the production Monte-Carlo path: the
// lane-batched SoA kernel with the closed-form failure-to-failure
// advance and the ziggurat sampler — the per-run cost RunMany's
// workers pay — reported per run: compile once, then drive full-width
// RunBatch calls. Reports up to and including BENCH_PR6 measured
// sim.Run (a compile plus one scalar run per call) under this name;
// the scalar layer lives on as runner_throughput.
func benchEngineThroughput() Metric {
	batch, err := sim.Compile(throughputConfig())
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
	return metric(testing.Benchmark(func(b *testing.B) {
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
	}))
}

// benchRunnerThroughput measures the scalar compiled-batch Runner, the
// reference the lane kernel is checked against.
func benchRunnerThroughput() Metric {
	batch, err := sim.Compile(throughputConfig())
	if err != nil {
		fatal(err)
	}
	r := batch.NewRunner()
	return metric(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i++ {
			total += r.Run(uint64(i)).Failures
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(total)/secs, "failures/sec")
		}
	}))
}

// benchBatchRunMany measures the parallel streaming aggregation over a
// 2048-run batch.
func benchBatchRunMany() Metric {
	cfg := throughputConfig()
	cfg.Tbase = 1e5 // keeps the batch bounded
	cfg.Seed = 42
	const runs = 2048
	return metric(testing.Benchmark(func(b *testing.B) {
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
	}))
}

// benchDetailedRunner measures the compiled detailed batch path on a
// moderate platform (the substrates are O(N) per failure) with enough
// failures per run to exercise the cluster, registry and restore
// queue: the substrates are built once by CompileDetailed/NewRunner
// and rewound in place between runs.
func benchDetailedRunner() Metric {
	batch, err := sim.CompileDetailed(sim.DetailedConfig{
		Protocol: core.DoubleNBL,
		Params:   scenario.Base().Params.WithNodes(240).WithMTBF(600),
		Phi:      1,
		Tbase:    2e4,
	})
	if err != nil {
		fatal(err)
	}
	r := batch.NewRunner()
	return metric(testing.Benchmark(func(b *testing.B) {
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
	}))
}

// benchReplicationOverhead measures the replication tax on the durable
// job path: a 4-point job (submit, schedule, execute with fsynced
// checkpoints, wait) executed by a manager whose checkpoints must
// reach a write quorum of two in-process HTTP replicas (a 3-node
// fleet's worth), versus the same manager unreplicated. NsOp is the
// replicated job; Extra carries the unreplicated ns/op and the
// overhead ratio — the framing, CRC check, HTTP round trips and quorum
// wait per checkpoint, which is the cost every HA deployment pays.
func benchReplicationOverhead() Metric {
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
	seed := 0
	jobLoop := func(mgr *jobs.Manager) func(b *testing.B) {
		const points = 4 // 2 φ points × 2 MTBFs
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seed++ // fresh seed: a new job id and a cache-cold grid
				body := fmt.Sprintf(`{"protocols": ["DoubleNBL"], "phiFracs": [0.25, 0.75],
					"mtbfs": [1800, 3600], "tbase": 20000, "runs": 8, "seed": %d}`, seed)
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
	dirs := make([]string, 4)
	for i := range dirs {
		dir, err := os.MkdirTemp("", "bench-repl-*")
		if err != nil {
			fatal(err)
		}
		dirs[i] = dir
	}
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

	svc := api.NewService(api.Options{})
	mgr := newMgr(svc, dirs[2], repl)
	res := testing.Benchmark(jobLoop(mgr))
	mgr.Close()

	plain := newMgr(svc, dirs[3], nil)
	plainRes := testing.Benchmark(jobLoop(plain))
	plain.Close()

	m := metric(res)
	plainNs := nsOp(plainRes)
	m.Extra = map[string]float64{
		"unreplicated_ns_op": plainNs,
		"overhead_ratio":     m.NsOp / plainNs,
	}
	return m
}

// median is the middle of xs, by stats.Quantile's interpolation.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// summarize folds one row's samples into its report row: the median
// and CI95 of ns/op, the median allocs and bytes per op, and the
// median of every extra metric.
func summarize(name string, ms []Metric) Metric {
	var s stats.Sample
	ns := make([]float64, len(ms))
	allocs := make([]float64, len(ms))
	bytes := make([]float64, len(ms))
	extra := map[string][]float64{}
	for i, m := range ms {
		s.Add(m.NsOp)
		ns[i] = m.NsOp
		allocs[i] = float64(m.AllocsOp)
		bytes[i] = float64(m.BytesOp)
		for k, v := range m.Extra {
			extra[k] = append(extra[k], v)
		}
	}
	out := Metric{
		Name:      name,
		NsOp:      median(ns),
		CI95:      s.CI95(),
		NsSamples: ns,
		AllocsOp:  int64(math.Round(median(allocs))),
		BytesOp:   int64(math.Round(median(bytes))),
		Extra:     make(map[string]float64, len(extra)),
	}
	for k, vs := range extra {
		out.Extra[k] = median(vs)
	}
	return out
}

// measure runs every row samples times at GOMAXPROCS=cpus, round-robin
// so a slow stretch of the host lands on several rows' samples rather
// than on all of one row's, prints the summary rows and restores
// GOMAXPROCS afterwards.
func measure(rs []row, cpus int) Report {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
	got := make([][]Metric, len(rs))
	for s := 0; s < samples; s++ {
		for i, r := range rs {
			got[i] = append(got[i], r.sample())
		}
	}
	rep := Report{
		Schema:    "repro-bench/v2",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      cpus,
	}
	for i, r := range rs {
		m := summarize(r.name, got[i])
		fmt.Printf("%-22s %14.0f ns/op ±%5.1f%% %8d allocs/op", m.Name, m.NsOp, 100*m.CI95/m.NsOp, m.AllocsOp)
		keys := make([]string, 0, len(m.Extra))
		for k := range m.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s=%.4g", k, m.Extra[k])
		}
		fmt.Println()
		rep.Benchmarks = append(rep.Benchmarks, m)
	}
	return rep
}

// run measures rs — at the baseline's cpus when there is a baseline,
// so that worker counts and the allocations that follow them match —
// and gates the result against it.
func run(rs []row, base *Report) (Report, error) {
	if base == nil {
		return measure(rs, runtime.GOMAXPROCS(0)), nil
	}
	if base.CPUs < 1 {
		return Report{}, fmt.Errorf("bench: baseline records cpus %d", base.CPUs)
	}
	rep := measure(rs, base.CPUs)
	return rep, gate(rs, rep, *base)
}

// gate compares every row of rep against the baseline and returns an
// error for the first one that is missing, whose median ns/op is more
// than maxRegress over the baseline's, or whose allocs/op break its
// allocation rule. The time check compares against the machine that
// produced the baseline.
func gate(rs []row, rep, base Report) error {
	find := func(ms []Metric, name string) *Metric {
		for i := range ms {
			if ms[i].Name == name {
				return &ms[i]
			}
		}
		return nil
	}
	for _, r := range rs {
		want := find(base.Benchmarks, r.name)
		if want == nil {
			return fmt.Errorf("bench: %s missing from baseline", r.name)
		}
		got := find(rep.Benchmarks, r.name)
		if got == nil {
			return fmt.Errorf("bench: %s missing from measurement", r.name)
		}
		limit := want.AllocsOp + allocSlack
		if r.relAllocs {
			// A relative bound with the absolute floor, so a tiny
			// baseline (the batch runner is ~1 alloc/op) does not turn
			// inliner jitter into a failure.
			limit = max(limit, int64(float64(want.AllocsOp)*(1+maxRegress)))
		}
		if got.AllocsOp > limit {
			return fmt.Errorf("bench: %s allocates %d/op, baseline is %d/op (limit %d)",
				r.name, got.AllocsOp, want.AllocsOp, limit)
		}
		nsLimit := want.NsOp * (1 + maxRegress)
		if got.NsOp > nsLimit {
			return fmt.Errorf("bench: %s regressed: median %.0f ns/op > %.0f ns/op (baseline %.0f +%d%%)",
				r.name, got.NsOp, nsLimit, want.NsOp, int(maxRegress*100))
		}
		fmt.Printf("gate ok: %s median %.0f ns/op within %.0f ns/op (baseline %.0f +%d%%), %d allocs/op (limit %d)\n",
			r.name, got.NsOp, nsLimit, want.NsOp, int(maxRegress*100), got.AllocsOp, limit)
	}
	return nil
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading baseline: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parsing baseline: %w", err)
	}
	return &rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	out := flag.String("out", "bench.json", "output JSON path")
	baseline := flag.String("baseline", "", "committed report to gate every row against, measured at its cpus")
	flag.Parse()

	var base *Report
	if *baseline != "" {
		var err error
		if base, err = readReport(*baseline); err != nil {
			fatal(err)
		}
	}
	rep, gateErr := run(rows, base)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d samples per row at GOMAXPROCS=%d)\n", *out, samples, rep.CPUs)
	if gateErr != nil {
		fatal(gateErr)
	}
}
