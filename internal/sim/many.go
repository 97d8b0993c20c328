package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Aggregate summarizes a batch of independent runs of the same
// configuration (differing only by seed).
type Aggregate struct {
	Runs      int
	Waste     stats.Sample // waste of completed runs
	Makespan  stats.Sample // makespan of completed runs
	LossPerF  stats.Sample // mean lost time per failure (simulated F)
	Failures  stats.Sample // failures per run
	Fatal     stats.Proportion
	Completed stats.Proportion
	// ImportanceFatal averages the variance-reduced per-run fatal
	// probability estimates (see Result.ImportanceFatalProb).
	ImportanceFatal stats.Sample
}

// Add folds one run into the aggregate.
func (a *Aggregate) Add(res Result) {
	a.Runs++
	a.Fatal.Add(res.Fatal)
	a.Completed.Add(res.Completed)
	a.ImportanceFatal.Add(res.ImportanceFatalProb)
	if res.Completed {
		a.Waste.Add(res.Waste)
		a.Makespan.Add(res.Makespan)
		a.Failures.Add(float64(res.Failures))
		if res.Failures > 0 {
			a.LossPerF.Add(res.LostTime / float64(res.Failures))
		}
	}
}

// Merge folds another aggregate into a. Merging an empty aggregate is
// a no-op and merging into an empty aggregate copies o exactly, so a
// chunk-ordered merge of partial aggregates is independent of how many
// workers produced them.
func (a *Aggregate) Merge(o Aggregate) {
	a.Runs += o.Runs
	a.Waste.Merge(o.Waste)
	a.Makespan.Merge(o.Makespan)
	a.LossPerF.Merge(o.LossPerF)
	a.Failures.Merge(o.Failures)
	a.Fatal.Merge(o.Fatal)
	a.Completed.Merge(o.Completed)
	a.ImportanceFatal.Merge(o.ImportanceFatal)
}

// aggChunkSize is the fixed streaming-aggregation granularity: seeds
// are grouped into chunks of this many consecutive runs, each chunk is
// reduced to a partial Aggregate (by in-seed-order Adds over the
// chunk's buffered results), and the partials are merged in chunk
// order. The chunk boundaries and the per-chunk Add order depend only
// on the run count — never on the worker count or scheduling — so the
// final Aggregate is bitwise identical for any number of workers, and
// a batch holds one chunk of Results plus O(1) aggregates instead of
// materializing all runs. Within a chunk the runs themselves are
// simulated in parallel, so batches as small as one chunk still use
// the full worker budget.
const aggChunkSize = 256

// RunMany executes runs independent simulations in parallel (one
// goroutine per CPU) and aggregates the results. Seeds are
// cfg.Seed+0 .. cfg.Seed+runs-1, so results are reproducible and
// independent of the worker count. Config.Source must be nil (a shared
// source cannot be split across runs).
func RunMany(cfg Config, runs int) (Aggregate, error) {
	return RunManyWorkers(cfg, runs, runtime.GOMAXPROCS(0))
}

// RunManyWorkers is RunMany with an explicit worker budget, for
// callers that already parallelize above the batch (the API sweep
// engine gives each grid point a bounded slice of the machine instead
// of letting every point claim all CPUs). workers <= 0 falls back to
// one goroutine per CPU. The aggregate is identical for any worker
// count.
func RunManyWorkers(cfg Config, runs, workers int) (Aggregate, error) {
	if cfg.Source != nil {
		cfg.Source = nil // sources are single-run; fall back to seeded generation
	}
	b, err := Compile(cfg)
	if err != nil {
		return Aggregate{}, err
	}
	return b.RunManySeeded(cfg.Seed, runs, workers)
}

// RunManySeeded executes runs simulations of the batch with seeds
// base+0 .. base+runs-1 across the given worker budget, streaming
// per-chunk partial aggregates instead of materializing per-run
// Results. Batches on the merged exponential path execute through the
// lane-batched kernel (LaneRunner) in production mode — closed-form
// fast-forward plus ziggurat sampling, statistically equivalent to
// the scalar Runner and fully deterministic per seed, with the same
// chunked aggregation, so the Aggregate is bitwise identical for any
// worker count; renewal-law batches run the scalar Runner. Each
// worker owns one reusable runner (kept across chunks), so the
// steady-state simulation loop allocates nothing.
func (b *Batch) RunManySeeded(base uint64, runs, workers int) (Aggregate, error) {
	if b.c.iid() {
		return b.aggregateLanes(runs, workers, false,
			func(lo int, seeds []uint64, anti []bool) {
				for i := range seeds {
					seeds[i] = base + uint64(lo+i)
				}
			}, nil)
	}
	return AggregateSeeded(base, runs, workers, func(int) func(uint64) (Result, error) {
		r := b.NewRunner()
		return func(seed uint64) (Result, error) { return r.Run(seed), nil }
	})
}

// RunAntitheticSeeded executes the global run indices [first,
// first+runs) of the antithetically paired schedule (run j: seed
// base+j/2, reflected when j is odd) with the batch's fastest
// backend: lane-batched in exact mode on the merged exponential path
// — pairs land on adjacent lanes and replay the scalar draw sequence
// bitwise — and the scalar Runner otherwise. The semantics
// (chunking, observe order, worker-count bitwise independence) are
// exactly AggregateAntithetic's; the engine package's adaptive
// executor routes through it.
func (b *Batch) RunAntitheticSeeded(base uint64, first, runs, workers int,
	observe func(Result)) (Aggregate, error) {
	if b.c.iid() {
		return b.aggregateLanes(runs, workers, true,
			func(lo int, seeds []uint64, anti []bool) {
				for i := range seeds {
					j := first + lo + i
					seeds[i] = base + uint64(j/2)
					anti[i] = j&1 == 1
				}
			}, observe)
	}
	return AggregateAntithetic(base, first, runs, workers,
		func(int) func(uint64, bool) (Result, error) {
			r := b.NewRunner()
			return func(seed uint64, antithetic bool) (Result, error) {
				return r.RunAntithetic(seed, antithetic), nil
			}
		}, observe)
}

// aggregateLanes is the lane-batched analogue of aggregateItems: items
// [0, n) are dispatched in the same fixed chunks of aggChunkSize, each
// chunk splits into whole lane groups of DefaultLaneWidth (the width
// divides the chunk size, so group boundaries — and with them the
// merge order — are identical to the scalar path's), workers claim
// groups and run them through per-worker LaneRunners, and the buffered
// Results fold in item order exactly as before. A lane Result is a
// pure function of its seed (exact mode: bitwise the scalar Runner's;
// production mode: statistically equivalent), so the Aggregate is
// bitwise identical for any worker count either way.
func (b *Batch) aggregateLanes(n, workers int, antithetic bool,
	fill func(lo int, seeds []uint64, anti []bool), observe func(Result)) (Aggregate, error) {
	if n <= 0 {
		return Aggregate{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (n+DefaultLaneWidth-1)/DefaultLaneWidth)
	if workers < 1 {
		workers = 1
	}
	type laneWorker struct {
		lr    *LaneRunner
		seeds []uint64
		anti  []bool
	}
	ws := make([]*laneWorker, workers)
	defer func() {
		for _, w := range ws {
			if w != nil {
				lanePool.Put(w.lr)
			}
		}
	}()
	for w := range ws {
		lr, err := b.laneRunner()
		if err != nil {
			return Aggregate{}, err
		}
		// The antithetic schedule runs in exact mode: reflection must
		// mirror the scalar draw sequence exactly for the pairing (and
		// the adaptive executor's oracle tests) to hold.
		lr.SetExact(antithetic)
		ws[w] = &laneWorker{lr: lr, seeds: make([]uint64, DefaultLaneWidth)}
		if antithetic {
			ws[w].anti = make([]bool, DefaultLaneWidth)
		}
	}
	buf := make([]Result, min(aggChunkSize, n))
	var total Aggregate
	for lo := 0; lo < n; lo += aggChunkSize {
		hi := min(lo+aggChunkSize, n)
		span := buf[:hi-lo]
		groups := (len(span) + DefaultLaneWidth - 1) / DefaultLaneWidth
		err := runChunks(groups, workers,
			func(w int) *laneWorker { return ws[w] },
			func(w *laneWorker, g int) error {
				gLo := g * DefaultLaneWidth
				gHi := min(gLo+DefaultLaneWidth, len(span))
				seeds := w.seeds[:gHi-gLo]
				var anti []bool
				if antithetic {
					anti = w.anti[:gHi-gLo]
				}
				fill(lo+gLo, seeds, anti)
				w.lr.RunBatch(seeds, anti, span[gLo:gHi])
				return nil
			})
		if err != nil {
			return Aggregate{}, err
		}
		var part Aggregate
		for j := range span {
			part.Add(span[j])
			if observe != nil {
				observe(span[j])
			}
		}
		total.Merge(part)
	}
	return total, nil
}

// AggregateSeeded is the backend-agnostic batch executor behind
// RunManySeeded and the engine package: it runs seeds base+0 ..
// base+runs-1 through per-worker run functions and streams the chunked
// deterministic aggregation. newRunner(w) is called once per worker
// (before any run starts) and returns that worker's run function — a
// closure over whatever reusable per-worker state the backend needs —
// so the steady-state loop pays no per-run setup.
//
// A per-run error (the detailed engine's fatality cross-check, an
// exhausted backend) cancels the remaining dispatch via runChunks
// instead of letting the other workers finish the batch.
func AggregateSeeded(base uint64, runs, workers int,
	newRunner func(w int) func(seed uint64) (Result, error)) (Aggregate, error) {
	return aggregateItems(runs, workers,
		func(w int) func(item int) (Result, error) {
			run := newRunner(w)
			return func(item int) (Result, error) { return run(base + uint64(item)) }
		}, nil)
}

// AggregateAntithetic is the adaptive executor's round primitive: it
// runs the global run indices [first, first+runs) of an
// antithetically paired schedule — run index j belongs to pair j/2,
// shares seed base+j/2 with its mirror, and the odd half draws the
// reflected-uniform failure sample — through per-worker run functions,
// streaming the same chunked deterministic aggregation as
// AggregateSeeded. observe, when non-nil, receives every Result once,
// in run-index order, on the calling goroutine (during the in-order
// Add pass), so callers can feed order-sensitive accumulators (the
// control-variate regression) without giving up worker-count
// independence.
//
// The index mapping depends only on (base, j), never on the round
// split: executing [0, 8) then [8, 16) replays the exact pairs an
// uninterrupted [0, 16) with the same round boundary would run, which
// is what makes an interrupted adaptive point bitwise resumable.
func AggregateAntithetic(base uint64, first, runs, workers int,
	newRunner func(w int) func(seed uint64, antithetic bool) (Result, error),
	observe func(Result)) (Aggregate, error) {
	return aggregateItems(runs, workers,
		func(w int) func(item int) (Result, error) {
			run := newRunner(w)
			return func(item int) (Result, error) {
				j := first + item
				return run(base+uint64(j/2), j&1 == 1)
			}
		}, observe)
}

// aggregateItems is the shared chunked executor behind AggregateSeeded
// and AggregateAntithetic: items [0, n) are dispatched over the worker
// budget in fixed chunks of aggChunkSize, each chunk's buffered
// Results are folded in item order into a partial Aggregate (observe
// sees them in the same pass), and the partials merge in chunk order —
// bitwise independent of the worker count.
func aggregateItems(n, workers int,
	newRunner func(w int) func(item int) (Result, error),
	observe func(Result)) (Aggregate, error) {
	if n <= 0 {
		return Aggregate{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers < 1 {
		workers = 1
	}
	fns := make([]func(int) (Result, error), workers)
	for w := range fns {
		fns[w] = newRunner(w)
	}
	buf := make([]Result, min(aggChunkSize, n))
	var total Aggregate
	for lo := 0; lo < n; lo += aggChunkSize {
		hi := min(lo+aggChunkSize, n)
		span := buf[:hi-lo]
		err := runChunks(len(span), workers,
			func(w int) func(int) (Result, error) { return fns[w] },
			func(run func(int) (Result, error), j int) error {
				res, err := run(lo + j)
				if err != nil {
					return err
				}
				span[j] = res
				return nil
			})
		if err != nil {
			return Aggregate{}, err
		}
		// The partial is built by in-order Adds over the chunk, so it —
		// and therefore the chunk-ordered merge — is independent of how
		// the parallel runs above were scheduled.
		var part Aggregate
		for j := range span {
			part.Add(span[j])
			if observe != nil {
				observe(span[j])
			}
		}
		total.Merge(part)
	}
	return total, nil
}

// runChunks dispatches work-item indices [0, n) to a pool of workers;
// worker w operates on the state newWorker(w) returns (a reusable
// Runner in the batch path). The first error cancels the dispatch:
// every worker observes the stop flag before claiming its next item,
// so a failing batch aborts promptly instead of the surviving workers
// simulating the rest of it.
func runChunks[W any](n, workers int, newWorker func(w int) W, fn func(w W, item int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers < 1 {
		workers = 1
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newWorker(i)
			for !stop.Load() {
				item := int(next.Add(1)) - 1
				if item >= n {
					return
				}
				if err := fn(w, item); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}
