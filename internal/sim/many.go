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
// lane-batched kernel (LaneRunner) — closed-form fast-forward plus
// ziggurat sampling, statistically equivalent to the scalar Runner and
// fully deterministic per seed, with the same chunked aggregation, so
// the Aggregate is bitwise identical for any worker count; renewal-law
// and correlated batches run the scalar Runner. Each
// worker owns one reusable runner (kept across chunks), so the
// steady-state simulation loop allocates nothing.
func (b *Batch) RunManySeeded(base uint64, runs, workers int) (Aggregate, error) {
	if b.cfg.Lanes() {
		return b.aggregateLanes(base, 0, runs, workers, false, nil)
	}
	return AggregateSeeded(base, runs, workers, func(int) func(uint64) (Result, error) {
		r := b.NewRunner()
		return func(seed uint64) (Result, error) { return r.Run(seed), nil }
	})
}

// RunAntitheticSeeded executes the global run indices [first,
// first+runs) of the antithetically paired schedule (run j: seed
// base+j/2, reflected when j is odd) with the batch's fastest
// backend: i.i.d. batches run on the lane kernel, through the same
// pool and chunked aggregation as RunManySeeded, with each pair on
// adjacent lanes; renewal-law and correlated batches run the scalar
// Runner through AggregateAntithetic. The chunking, the observe order
// and the worker-count bitwise independence are AggregateAntithetic's
// on both paths. Lane Results are statistically equivalent to the
// scalar Runner's, not bitwise (see LaneRunner); the engine package's
// adaptive executor routes through here.
func (b *Batch) RunAntitheticSeeded(base uint64, first, runs, workers int,
	observe func(Result)) (Aggregate, error) {
	if b.cfg.Lanes() {
		return b.aggregateLanes(base, first, runs, workers, true, observe)
	}
	return AggregateAntithetic(base, first, runs, workers,
		func(int) func(uint64, bool) (Result, error) {
			r := b.NewRunner()
			return func(seed uint64, antithetic bool) (Result, error) {
				return r.RunAntithetic(seed, antithetic), nil
			}
		}, observe)
}

// Workers reports the most workers a batch of runs keeps busy, which
// is what a caller sharing a worker budget should claim for it. On the
// lane path (lanes) that is one per group of the narrowest split
// laneWidth allows; the scalar, renewal and detailed executors run one
// run per worker at a time, so elsewhere it is one per run. Both are
// counted over one aggregation chunk, the most a batch runs at once.
func Workers(runs int, lanes bool) int {
	n := min(runs, aggChunkSize)
	if lanes {
		n = (n + minLaneWidth - 1) / minLaneWidth
	}
	return max(n, 1)
}

// laneWidth is the group width a chunk of n runs splits into over the
// given workers: DefaultLaneWidth while the chunk has a full-width
// group for every worker, otherwise the even width that spreads the
// chunk over all of them, but never below minLaneWidth — a 16-run
// round on two workers runs as two groups of 8.
func laneWidth(n, workers int) int {
	if (n+DefaultLaneWidth-1)/DefaultLaneWidth >= workers {
		return DefaultLaneWidth
	}
	w := (n + workers - 1) / workers
	return max(w+w&1, minLaneWidth)
}

// aggregateLanes is the lane-batched analogue of aggregateItems over
// the global run indices [first, first+n): run j draws seed base+j or,
// antithetic, seed base+j/2, reflected when j is odd. Items are
// dispatched in the same fixed chunks of aggChunkSize, each chunk
// splits into lane groups of laneWidth lanes, workers claim groups and
// run them through pooled LaneRunners, and the buffered Results fold
// in item order exactly as on the scalar path. A lane Result is a pure
// function of its seed and reflection flag, so neither the group
// width nor the worker count changes a bit of the Aggregate: the chunk
// boundaries and the Add order depend only on the run count. The
// call's scratch lives with its pooled runners, so a batch of one
// group allocates nothing.
func (b *Batch) aggregateLanes(base uint64, first, n, workers int, antithetic bool,
	observe func(Result)) (Aggregate, error) {
	if n <= 0 {
		return Aggregate{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, Workers(n, true))
	lead, err := b.laneRunner()
	if err != nil {
		return Aggregate{}, err
	}
	lead.crew = append(lead.crew[:0], lead)
	defer lead.releaseCrew()
	for len(lead.crew) < workers {
		lr, err := b.laneRunner()
		if err != nil {
			return Aggregate{}, err
		}
		lead.crew = append(lead.crew, lr)
	}
	lead.buf = resize(lead.buf, min(aggChunkSize, n))
	var total Aggregate
	for lo := 0; lo < n; lo += aggChunkSize {
		span := lead.buf[:min(aggChunkSize, n-lo)]
		runGroups(lead.crew, base, first+lo, laneWidth(len(span), workers), antithetic, span)
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

// runGroups fills span with the runs of global indices [j0,
// j0+len(span)), split into groups of width lanes over the crew's
// runners: inline when one runner suffices, so a one-group batch
// starts no goroutine, and through runChunks otherwise.
func runGroups(crew []*LaneRunner, base uint64, j0, width int, antithetic bool, span []Result) {
	if len(crew) == 1 || len(span) <= width {
		for lo := 0; lo < len(span); lo += width {
			crew[0].runGroup(base, j0+lo, antithetic, span[lo:min(lo+width, len(span))])
		}
		return
	}
	groups := (len(span) + width - 1) / width
	runChunks(groups, len(crew), func(w int) *LaneRunner { return crew[w] },
		func(lr *LaneRunner, g int) error {
			lo := g * width
			lr.runGroup(base, j0+lo, antithetic, span[lo:min(lo+width, len(span))])
			return nil
		})
}

// runGroup runs the global run indices [j0, j0+len(out)) as one lane
// group, seeding each lane as aggregateLanes describes.
func (lr *LaneRunner) runGroup(base uint64, j0 int, antithetic bool, out []Result) {
	seeds := lr.seeds[:len(out)]
	var anti []bool
	if antithetic {
		anti = lr.anti[:len(out)]
		for i := range seeds {
			j := j0 + i
			seeds[i] = base + uint64(j/2)
			anti[i] = j&1 == 1
		}
	} else {
		for i := range seeds {
			seeds[i] = base + uint64(j0+i)
		}
	}
	lr.RunBatch(seeds, anti, out)
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
// Runner in the batch path). The calling goroutine is worker 0, so a
// dispatch starts workers-1 goroutines. The first error cancels the
// dispatch: every worker observes the stop flag before claiming its
// next item, so a failing batch aborts promptly instead of the
// surviving workers simulating the rest of it.
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
	work := func(i int) {
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
	}
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			work(i)
		}(i)
	}
	work(0)
	wg.Wait()
	return firstErr
}
