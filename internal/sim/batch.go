package sim

import (
	"sync"

	"repro/internal/core"
	"repro/internal/failure"
)

// compiled is the per-batch precomputation: everything derived from a
// Config that is identical across all seeds of a Monte-Carlo batch
// (protocol traits, schedule phases, optimal period, risk window,
// importance coefficients). Compiling once and resetting a reusable
// engine per seed is what makes the hot path allocation-free.
type compiled struct {
	pr core.Protocol
	p  core.Params

	phi     float64
	theta   float64
	phases  core.Phases
	period  float64
	exRate  float64 // work rate during an overlapped exchange: 1 − φ/θ
	images  int     // buddy images to re-receive after a failure
	risk    float64 // risk-window length
	group   int     // buddy group size
	tbase   float64 // failure-free application duration
	horizon float64 // absolute simulation-time bound
	// periodWork is the work accomplished by one full fault-free
	// period (= scheduleWork(period)); the lane kernel advances whole
	// periods by it, and the scalar fast-forward stops two of it short
	// of Tbase.
	periodWork float64
	// impFatal is the first-order fatal-chain probability charged per
	// observed failure (λ·risk for pairs, 2(λ·risk)² for triples).
	impFatal float64
	law      failure.Law
	// corr carries the correlation settings (failure domains and/or
	// MTBF groups); nil or empty means the classic i.i.d. model.
	corr *failure.Correlation
	// nodeLaws is the per-node law slice prebuilt from corr.Groups
	// (nil without groups); it forces the renewal source.
	nodeLaws []failure.Law
}

// Lanes reports whether batches of cfg execute through the lane
// kernel: they keep the i.i.d. exponential platform process, the
// precondition of its closed-form fast-forward and batched sampling.
// Any law override or correlation setting routes a batch through the
// scalar engine.
func (cfg Config) Lanes() bool { return cfg.Law == nil && cfg.Correlation.IID() }

// compileConfig validates cfg and computes the batch precomputation.
func compileConfig(cfg Config) (compiled, error) {
	if err := cfg.Validate(); err != nil {
		return compiled{}, err
	}
	pr, p := cfg.Protocol, cfg.Params
	phi := core.EffectivePhi(pr, p, cfg.Phi)
	period := cfg.Period
	if period == 0 {
		var err error
		period, err = core.OptimalPeriod(pr, p, phi)
		if err != nil && err != core.ErrMTBFTooSmall {
			return compiled{}, err
		}
	}
	phases, err := core.PeriodPhases(pr, p, phi, period)
	if err != nil {
		return compiled{}, err
	}
	theta := p.Theta(phi)
	images := 1
	if pr.IsTriple() {
		images = 2
	}
	horizon := cfg.MaxSimTime
	if horizon == 0 {
		horizon = 1000 * cfg.Tbase
	}
	c := compiled{
		pr:      pr,
		p:       p,
		phi:     phi,
		theta:   theta,
		phases:  phases,
		period:  period,
		exRate:  (theta - phi) / theta,
		images:  images,
		risk:    core.RiskWindow(pr, p, phi),
		group:   pr.GroupSize(),
		tbase:   cfg.Tbase,
		horizon: horizon,
		law:     cfg.Law,
	}
	if !cfg.Correlation.IID() {
		if err := cfg.Correlation.Validate(p.N); err != nil {
			return compiled{}, err
		}
		c.corr = cfg.Correlation
		if len(cfg.Correlation.Groups) > 0 {
			laws, err := failure.GroupLaws(p.N, p.M, cfg.Correlation.Groups, cfg.Law)
			if err != nil {
				return compiled{}, err
			}
			c.nodeLaws = laws
		}
	}
	c.periodWork = c.scheduleWork(period)
	lr := p.Lambda() * c.risk
	if c.group == 2 {
		c.impFatal = lr
	} else {
		c.impFatal = 2 * lr * lr
	}
	return c, nil
}

// Batch is a compiled simulation configuration, immutable and safe for
// concurrent use. It amortizes per-batch precomputation (protocol
// phases, optimal period, risk window) across every seed of a
// Monte-Carlo batch: a 10⁵-run sweep point compiles once instead of
// 10⁵ times.
type Batch struct {
	cfg Config
	c   compiled
}

// lanePool holds DefaultLaneWidth LaneRunners shared by every batch of
// the process. The sweep engine compiles a new batch for every new
// physical point and runs each for only a few runs, so a per-batch
// pool would build a fresh 16-lane runner — most of such a point's
// allocations — for nearly every point.
var lanePool sync.Pool

// laneRunner returns a DefaultLaneWidth runner bound to b, from the
// process-wide pool when one is free (releaseCrew returns it when the
// batch completes). b must be on the i.i.d. path. bind recomputes
// everything derived from the batch and every run starts from a fresh
// record, so reuse cannot leak state between batches.
func (b *Batch) laneRunner() (*LaneRunner, error) {
	if lr, ok := lanePool.Get().(*LaneRunner); ok {
		lr.bind(b)
		return lr, nil
	}
	return b.NewLaneRunner(DefaultLaneWidth)
}

// releaseCrew returns the runners of a batch call — lr, which leads
// it, last — to the pool, dropping the references so a pooled runner
// holds none to another.
func (lr *LaneRunner) releaseCrew() {
	for i, w := range lr.crew {
		lr.crew[i] = nil
		if w != lr {
			lanePool.Put(w)
		}
	}
	lr.crew = lr.crew[:0]
	lanePool.Put(lr)
}

// Compile validates cfg and precomputes the batch state shared by all
// seeds. cfg.Source is ignored (sources are single-run; use Run).
func Compile(cfg Config) (*Batch, error) {
	cfg.Source = nil
	c, err := compileConfig(cfg)
	if err != nil {
		return nil, err
	}
	return &Batch{cfg: cfg, c: c}, nil
}

// Period returns the checkpointing period the batch simulates (the
// model-optimal period when the Config left it 0).
func (b *Batch) Period() float64 { return b.c.period }

// PeriodWork returns the work accomplished by one full fault-free
// period of the schedule. The multilevel composition uses it to convert
// a global-checkpoint interval of k periods into preserved work.
func (b *Batch) PeriodWork() float64 { return b.c.periodWork }

// FaultFreeMakespan returns the time the fault-free schedule needs to
// produce the given amount of work, the baseline of the LostTime
// metric.
func (b *Batch) FaultFreeMakespan(work float64) float64 {
	return b.c.faultFreeMakespan(work)
}

// Config returns the batch configuration with the period resolved.
func (b *Batch) Config() Config {
	cfg := b.cfg
	cfg.Period = b.c.period
	return cfg
}

// NewRunner returns a reusable single-goroutine simulation engine for
// the batch. A Runner amortizes every per-run allocation: after its
// first run it executes in zero allocations on the exponential path.
// Runners are not safe for concurrent use; create one per worker.
func (b *Batch) NewRunner() *Runner {
	r := &Runner{}
	r.e.comp = make([]riskEntry, 0, 16)
	r.bind(b)
	return r
}

// bind points the runner at batch b: the engine is rebuilt from b's
// compiled block and a fresh failure source, keeping only the risk
// set's backing array, so a rebound runner produces the bits of
// NewRunner on b.
func (r *Runner) bind(b *Batch) {
	r.e = engine{compiled: b.c, ff: newPeriodReplay(&b.c), comp: r.e.comp[:0]}
	r.e.initSource(nil)
}

// Runner executes simulations of one Batch, reusing all engine state
// between runs.
type Runner struct {
	e engine
}

// Run simulates one execution with the given seed. Equal seeds give
// identical Results, and Runner.Run(seed) is identical to sim.Run with
// the batch Config and that seed.
func (r *Runner) Run(seed uint64) Result {
	return r.e.runSeed(seed, false)
}

// RunAntithetic simulates one execution with the given seed, drawing
// the reflected-uniform failure sample when antithetic is true: the
// same raw RNG state as Run(seed) (same victims, same draw counts),
// with every inter-arrival time taken from the mirrored quantile. The
// pair (Run(seed), RunAntithetic(seed, true)) is the variance
// reduction unit of the adaptive executor; RunAntithetic(seed, false)
// is bitwise identical to Run(seed).
func (r *Runner) RunAntithetic(seed uint64, antithetic bool) Result {
	return r.e.runSeed(seed, antithetic)
}

// RunWork simulates one execution with the given seed and a work
// target overriding the batch's Tbase; the simulation horizon stays the
// batch's. The multilevel composition uses it to resume an execution
// after a global rollback (the remaining work shrinks, the compiled
// schedule does not), without recompiling or allocating per attempt.
// RunWork(seed, batch Tbase) is identical to Run(seed).
func (r *Runner) RunWork(seed uint64, tbase float64) Result {
	return r.RunWorkAntithetic(seed, tbase, false)
}

// RunWorkAntithetic is RunWork with the antithetic failure sample,
// letting the multilevel composition's resumed attempts participate in
// antithetic pairing: a reflected two-level run reflects every one of
// its inner attempts.
func (r *Runner) RunWorkAntithetic(seed uint64, tbase float64, antithetic bool) Result {
	saved := r.e.tbase
	r.e.tbase = tbase
	res := r.e.runSeed(seed, antithetic)
	r.e.tbase = saved
	return res
}
