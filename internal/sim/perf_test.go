package sim

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
)

// perfConfig is the hot-path configuration the allocation guards pin:
// the exponential fast path on a hostile-but-feasible platform, the
// same shape BenchmarkEngineThroughput measures.
func perfConfig() Config {
	return Config{
		Protocol: core.DoubleNBL,
		Params:   baseParams().WithMTBF(1800),
		Phi:      1,
		Tbase:    2e4,
		Seed:     1,
	}
}

// TestRunSteadyStateZeroAllocs is the headline allocation guard: after
// the first run has warmed the Runner's reusable state, simulating on
// the exponential path allocates nothing — no engine, no risk map, no
// rng stream, no event boxing.
func TestRunSteadyStateZeroAllocs(t *testing.T) {
	b, err := Compile(perfConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := b.NewRunner()
	seed := uint64(0)
	avg := testing.AllocsPerRun(10, func() {
		seed++
		r.Run(seed)
	})
	if avg != 0 {
		t.Fatalf("Runner.Run allocates %v per run in steady state, want 0", avg)
	}
}

// TestRenewalRunSteadyStateZeroAllocs extends the guard to the
// non-exponential renewal path: the generic event queue stores node
// indices by value and the per-node streams reseed in place, so even
// Weibull batches run allocation-free after warm-up.
func TestRenewalRunSteadyStateZeroAllocs(t *testing.T) {
	cfg := perfConfig()
	cfg.Params = cfg.Params.WithNodes(64)
	cfg.Tbase = 5e3
	cfg.Law = failure.Weibull{Shape: 0.7, MTBF: failure.IndividualMTBF(cfg.Params.M, cfg.Params.N)}
	b, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := b.NewRunner()
	seed := uint64(0)
	avg := testing.AllocsPerRun(10, func() {
		seed++
		r.Run(seed)
	})
	if avg != 0 {
		t.Fatalf("renewal Runner.Run allocates %v per run in steady state, want 0", avg)
	}
}

// TestRunnerMatchesRun pins the reset contract: a Runner reused across
// seeds produces exactly the Result a fresh sim.Run produces for each
// seed, in any order.
func TestRunnerMatchesRun(t *testing.T) {
	cfg := perfConfig()
	b, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := b.NewRunner()
	for _, seed := range []uint64{3, 1, 7, 1, 0} {
		cfg.Seed = seed
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Run(seed); got != want {
			t.Fatalf("seed %d: Runner.Run %+v != Run %+v", seed, got, want)
		}
	}
}

// TestAggregateMergeMatchesSequential is the merge-equivalence guard:
// partial aggregates built chunk by chunk and merged in chunk order
// match the single-threaded aggregation bit for bit.
func TestAggregateMergeMatchesSequential(t *testing.T) {
	cfg := perfConfig()
	cfg.Tbase = 5e3
	const runs = 600 // spans 3 chunks of 256
	b, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Single-threaded reference through the public batch API.
	want, err := b.RunManySeeded(cfg.Seed, runs, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-built partials over the same fixed chunk boundaries and lane
	// groups (the production lane kernel, like RunManySeeded uses),
	// merged in order.
	lr, err := b.NewLaneRunner(DefaultLaneWidth)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, DefaultLaneWidth)
	out := make([]Result, DefaultLaneWidth)
	var got Aggregate
	for lo := 0; lo < runs; lo += aggChunkSize {
		hi := lo + aggChunkSize
		if hi > runs {
			hi = runs
		}
		var part Aggregate
		for gLo := lo; gLo < hi; gLo += DefaultLaneWidth {
			gHi := gLo + DefaultLaneWidth
			if gHi > hi {
				gHi = hi
			}
			for i := gLo; i < gHi; i++ {
				seeds[i-gLo] = cfg.Seed + uint64(i)
			}
			lr.RunBatch(seeds[:gHi-gLo], nil, out[:gHi-gLo])
			for i := 0; i < gHi-gLo; i++ {
				part.Add(out[i])
			}
		}
		got.Merge(part)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunk-merged aggregate differs from single-threaded:\n%+v\n%+v", got, want)
	}
}

// TestRunManyWorkerCountBitwise pins the streaming-aggregation
// invariant: the Aggregate is bitwise identical for every worker
// count, because chunk boundaries depend only on the run count and the
// partials merge in chunk order.
func TestRunManyWorkerCountBitwise(t *testing.T) {
	cfg := perfConfig()
	cfg.Tbase = 5e3
	for _, runs := range []int{600, 2, 16, 24} {
		ref, err := RunManyWorkers(cfg, runs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 5, 8} {
			agg, err := RunManyWorkers(cfg, runs, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(agg, ref) {
				t.Fatalf("%d runs: aggregate differs between 1 and %d workers:\n%+v\n%+v", runs, workers, ref, agg)
			}
		}
	}
}

// TestRunManySeededSmallBatchZeroAllocs pins the lane executor's
// per-call scratch to its pooled runners: once the pool holds a
// runner, a one-group batch (a 2-run fleet point) allocates nothing —
// no worker slice, seed buffer, Result buffer, closure or goroutine.
func TestRunManySeededSmallBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled runners at random under -race")
	}
	b, err := Compile(perfConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunManySeeded(0, 2, 2); err != nil {
		t.Fatal(err)
	}
	base := uint64(0)
	allocs := testing.AllocsPerRun(20, func() {
		base += 2
		if _, err := b.RunManySeeded(base, 2, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("2-run RunManySeeded allocates %.1f times per call, want 0", allocs)
	}
}

// TestRunChunksAbortsOnFirstError pins the batch cancellation fix: a
// failing chunk stops the dispatch before the surviving workers chew
// through the rest of the batch.
func TestRunChunksAbortsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int64
	const n, workers = 1000, 4
	err := runChunks(n, workers, func(int) struct{} { return struct{}{} },
		func(struct{}, int) error {
			executed.Add(1)
			return boom
		})
	if err != boom {
		t.Fatalf("err = %v, want the chunk error", err)
	}
	// Every worker stops at its first failing chunk: at most one
	// execution per worker, never the whole batch.
	if got := executed.Load(); got > workers {
		t.Fatalf("%d chunks executed after the first error, want <= %d", got, workers)
	}
}

// TestRunChunksRunsEveryChunk checks the healthy path: each chunk runs
// exactly once.
func TestRunChunksRunsEveryChunk(t *testing.T) {
	const n = 100
	var seen [n]atomic.Int64
	err := runChunks(n, 7, func(int) struct{} { return struct{}{} },
		func(_ struct{}, chunk int) error {
			seen[chunk].Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("chunk %d executed %d times, want 1", i, got)
		}
	}
}

// TestCommitClosesRiskWindows is the regression test for the risk-set
// clearing at commit (formerly the map-clearing idiom, now the slice
// reset): committed snapshot sets close every open restoration window,
// for both buddy-group sizes.
func TestCommitClosesRiskWindows(t *testing.T) {
	for _, pr := range []core.Protocol{core.DoubleNBL, core.TripleNBL} {
		e, err := newEngine(Config{
			Protocol: pr,
			Params:   baseParams(),
			Phi:      1,
			Period:   100,
			Tbase:    1e4,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Open a window, then commit: the set must be empty and a
		// buddy failure right after must be neither fatal nor in-risk.
		e.t = 10
		if e.applyFailure(0) {
			t.Fatalf("%s: first failure cannot be fatal", pr)
		}
		if len(e.comp) != 1 || e.riskUntil <= e.t {
			t.Fatalf("%s: window not opened: comp=%v riskUntil=%v", pr, e.comp, e.riskUntil)
		}
		e.t = 12
		e.commit()
		if len(e.comp) != 0 {
			t.Fatalf("%s: commit left %d open windows", pr, len(e.comp))
		}
		if e.riskUntil > e.t {
			t.Fatalf("%s: commit left riskUntil=%v past t=%v", pr, e.riskUntil, e.t)
		}
		e.t = 14
		if e.applyFailure(1) {
			t.Fatalf("%s: buddy failure after commit must not be fatal", pr)
		}
		if e.res.FailuresInRisk != 0 {
			t.Fatalf("%s: buddy failure after commit counted as in-risk", pr)
		}
	}
}

// TestTripleCommitInsideWindowEndToEnd drives the commit-closes-window
// semantics through the public API for the group-of-3 protocol: at
// φ = 0, a first-period failure re-executes nothing, so the next
// commit (t ≈ 58) lands inside the 92 s risk window it opened. A buddy
// failure after the commit must not count as in-risk, and a third
// failure then only sees one open window — survivable. If commits
// failed to close windows, the same trace would be fatal.
func TestTripleCommitInsideWindowEndToEnd(t *testing.T) {
	cfg := Config{
		Protocol: core.TripleNBL,
		Params:   baseParams(), // D=0, R=4, θ(0)=44: risk window D+R+2θ = 92
		Phi:      0,
		Period:   100,
		Tbase:    3 * 98,
		Source: failure.NewReplay([]failure.Event{
			{Time: 10, Node: 0}, // phase 1 of period 1: reexec = 0, commit at ~58
			{Time: 70, Node: 1}, // after the commit: node 0's window is closed
			{Time: 80, Node: 2}, // only node 1's window open: survivable
		}),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fatal {
		t.Fatal("commit did not close the risk window: three-failure chain reported fatal")
	}
	if res.Failures != 3 {
		t.Fatalf("failures = %d, want 3", res.Failures)
	}
	// Only the third failure lands inside an open (node 1) window.
	if res.FailuresInRisk != 1 {
		t.Fatalf("FailuresInRisk = %d, want 1 (node 0's window must have closed at the commit)", res.FailuresInRisk)
	}
}
