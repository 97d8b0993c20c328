package engine

import (
	"errors"

	"repro/internal/sim"
)

// Fast is the default backend: the zero-allocation coordinated-
// timeline kernel of sim.Compile/Runner. It simulates the global
// checkpoint schedule with analytic risk-window bookkeeping, which is
// what makes 10⁶-node platforms cheap.
type Fast struct{}

// Name returns "fast".
func (Fast) Name() string { return "fast" }

// Resolve fills the optimal period and gates feasibility. Correlation
// runs on this backend (the scalar engine; the lane kernel is for
// i.i.d. batches only); trace replay needs the detailed backend's
// substrates.
func (Fast) Resolve(req Request) (Request, error) {
	if req.Trace != nil || req.TraceID != "" {
		return req, errors.New("engine: trace replay requires the detailed backend")
	}
	req, err := resolvePeriod(req)
	if err != nil {
		return req, err
	}
	if err := resolveCorrelation(req); err != nil {
		return req, err
	}
	return req, nil
}

// Compile precomputes the shared batch state via sim.Compile.
func (Fast) Compile(req Request) (Batch, error) {
	b, err := sim.Compile(req.simConfig())
	if err != nil {
		return nil, err
	}
	req.Period = b.Period()
	model, err := singleLevelModel(req)
	if err != nil {
		return nil, err
	}
	return &fastBatch{req: req, b: b, model: model}, nil
}

// Workers counts lane groups for i.i.d. batches, which run on the lane
// kernel, and runs otherwise.
func (Fast) Workers(req Request, runs int) int {
	return sim.Workers(runs, req.simConfig().Lanes())
}

// LaneBatched reports whether e runs req's batches on the lane kernel:
// the fast backend's i.i.d. merged exponential path.
func LaneBatched(e Engine, req Request) bool {
	_, fast := e.(Fast)
	return fast && req.simConfig().Lanes()
}

type fastBatch struct {
	req   Request
	b     *sim.Batch
	model Model
}

func (b *fastBatch) Request() Request { return b.req }
func (b *fastBatch) Model() Model     { return b.model }
func (b *fastBatch) NewRunner() Runner {
	return fastRunner{r: b.b.NewRunner()}
}

// RunManySeeded implements ManyRunner: batches on the merged
// exponential path execute through the lane kernel, statistically
// equivalent to the generic path (renewal-law batches fall back to
// the scalar Runner inside sim).
func (b *fastBatch) RunManySeeded(base uint64, runs, workers int) (sim.Aggregate, error) {
	return b.b.RunManySeeded(base, runs, workers)
}

// RunAntitheticSeeded implements AntitheticRunner with the same lane
// kernel; antithetic pairs occupy adjacent lanes. Renewal-law and
// correlated batches run the scalar Runner inside sim.
func (b *fastBatch) RunAntitheticSeeded(base uint64, first, runs, workers int,
	observe func(sim.Result)) (sim.Aggregate, error) {
	return b.b.RunAntitheticSeeded(base, first, runs, workers, observe)
}

type fastRunner struct{ r *sim.Runner }

func (f fastRunner) Run(seed uint64) (sim.Result, error) {
	return f.r.Run(seed), nil
}

func (f fastRunner) RunAntithetic(seed uint64, antithetic bool) (sim.Result, error) {
	return f.r.RunAntithetic(seed, antithetic), nil
}
