package engine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/multilevel"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Multilevel is the two-level backend: the fast kernel simulates the
// in-memory buddy level, and the global stable-storage level of
// internal/multilevel is composed on top per run. A fatal buddy-group
// failure no longer kills the application: the execution rolls back to
// the last global checkpoint (losing the work since it, plus the
// reload D+Rg) and resumes — the Monte-Carlo counterpart of the
// analytic composition in multilevel.Waste.
//
// Per run, the composition is first-order in the same sense as the
// model: global dumps are charged by work progress (one blocking dump
// of G per K inner periods' worth of work) rather than woven into the
// inner timeline, so the inner failure sample is exactly the fast
// engine's. Results never carry Fatal=true — that is the point of the
// global level; a deployment that cannot finish inside the horizon
// reports Completed=false instead.
type Multilevel struct{}

// Name returns "multilevel".
func (Multilevel) Name() string { return "multilevel" }

// Resolve validates the global level and fills the missing plan
// dimensions: a zero period and/or zero interval K are optimized by
// the analytic planner (multilevel.Optimize and its fixed-axis
// variants). No feasible plan — the MTBF is too small for any (P, k) —
// is reported infeasible.
func (Multilevel) Resolve(req Request) (Request, error) {
	if !req.Correlation.IID() {
		return req, fmt.Errorf("engine: correlation is not supported by the multilevel backend (use fast or detailed)")
	}
	if req.Trace != nil || req.TraceID != "" {
		return req, fmt.Errorf("engine: trace replay requires the detailed backend")
	}
	mc, err := req.multilevelConfig()
	if err != nil {
		return req, err
	}
	cfg := req.simConfig()
	if err := cfg.Validate(); err != nil {
		return req, err
	}
	g := *req.Global
	switch {
	case req.Period != 0 && g.K > 0:
		w, werr := multilevel.Waste(mc, req.Period, g.K)
		if werr != nil {
			return req, infeasible(werr)
		}
		if w >= 1 {
			return req, infeasible(fmt.Errorf("multilevel: waste saturates at period %v, k %d", req.Period, g.K))
		}
	case g.K > 0:
		plan, perr := multilevel.OptimizeForK(mc, g.K)
		if perr != nil {
			return req, infeasible(perr)
		}
		req.Period = plan.Period
	case req.Period != 0:
		plan, perr := multilevel.OptimizeInterval(mc, req.Period)
		if perr != nil {
			return req, infeasible(perr)
		}
		g.K = plan.K
	default:
		plan, perr := multilevel.Optimize(mc)
		if perr != nil {
			return req, infeasible(perr)
		}
		req.Period, g.K = plan.Period, plan.K
	}
	req.Global = &g
	// The inner kernel must be able to simulate the resolved period.
	if _, err := core.PeriodPhases(req.Protocol, req.Params, req.Phi, req.Period); err != nil {
		return req, infeasible(err)
	}
	return req, nil
}

// Validate checks the global level's standalone domain: the dump must
// cost positive time, the reload and interval must be non-negative.
// The protocol/platform context is validated per point by Resolve; this
// part is point-independent, so sweep engines gate it before expanding
// a grid (a bad g fails the request up front instead of aborting a
// half-streamed sweep).
func (g *Global) Validate() error {
	if g == nil || !(g.G > 0) {
		return errors.New("engine: multilevel backend needs a global level with g > 0")
	}
	if g.Rg < 0 || math.IsNaN(g.Rg) {
		return fmt.Errorf("engine: global recovery rg = %v", g.Rg)
	}
	if g.K < 0 {
		return fmt.Errorf("engine: global interval k = %d", g.K)
	}
	return nil
}

// multilevelConfig validates the request's global level.
func (r Request) multilevelConfig() (multilevel.Config, error) {
	if err := r.Global.Validate(); err != nil {
		return multilevel.Config{}, err
	}
	mc := multilevel.Config{
		Protocol: r.Protocol,
		Params:   r.Params,
		Phi:      r.Phi,
		G:        r.Global.G,
		Rg:       r.Global.Rg,
	}
	if err := mc.Validate(); err != nil {
		return multilevel.Config{}, err
	}
	return mc, nil
}

// Workers is one per run: the composed runner executes one run per
// worker at a time.
func (Multilevel) Workers(_ Request, runs int) int { return sim.Workers(runs, false) }

// Compile resolves any missing plan dimension, compiles the inner fast
// batch at the resolved period, and precomputes the composition
// constants.
func (Multilevel) Compile(req Request) (Batch, error) {
	if req.Period == 0 || req.Global == nil || req.Global.K == 0 {
		var err error
		if req, err = (Multilevel{}).Resolve(req); err != nil {
			return nil, err
		}
	}
	mc, err := req.multilevelConfig()
	if err != nil {
		return nil, err
	}
	inner, err := sim.Compile(req.simConfig())
	if err != nil {
		return nil, err
	}
	w, err := multilevel.Waste(mc, req.Period, req.Global.K)
	if err != nil {
		return nil, err
	}
	horizon := req.MaxSimTime
	if horizon == 0 {
		horizon = 1000 * req.Tbase
	}
	globalWork := float64(req.Global.K) * inner.PeriodWork()
	if globalWork <= 0 {
		return nil, fmt.Errorf("engine: multilevel plan preserves no work per interval (k=%d)", req.Global.K)
	}
	return &mlBatch{
		req:   req,
		inner: inner,
		mc:    mc,
		model: Model{
			Waste: w,
			// The per-failure loss is the inner protocol's F: ordinary
			// (non-fatal) failures are handled entirely by the buddy
			// level.
			Loss: core.FailureLoss(req.Protocol, req.Params, req.Phi, req.Period),
		},
		globalWork: globalWork,
		horizon:    horizon,
	}, nil
}

type mlBatch struct {
	req        Request
	inner      *sim.Batch
	mc         multilevel.Config
	model      Model
	globalWork float64 // work preserved per global interval: K × period work
	horizon    float64 // total-time bound across rollbacks
}

func (b *mlBatch) Request() Request { return b.req }
func (b *mlBatch) Model() Model     { return b.model }
func (b *mlBatch) NewRunner() Runner {
	return &mlRunner{b: b, inner: b.inner.NewRunner()}
}

type mlRunner struct {
	b     *mlBatch
	inner *sim.Runner
	str   rng.Stream
}

// Run simulates one two-level execution: fast-kernel attempts at the
// remaining work, resumed from the last global checkpoint after each
// fatal in-memory failure. Attempt seeds are drawn from a stream
// seeded by the run seed, so equal seeds give identical executions and
// the chunked aggregation stays worker-count independent.
func (r *mlRunner) Run(seed uint64) (sim.Result, error) {
	return r.RunAntithetic(seed, false)
}

// RunAntithetic is Run with the reflected-uniform failure sample: the
// attempt-seed stream is untouched (seeds are raw Uint64 draws, which
// reflection never alters), so a reflected two-level run resumes the
// exact same attempt schedule as its plain mirror while every inner
// attempt draws the mirrored failure sample through
// Runner.RunWorkAntithetic — the composition of the RunWork resumption
// with antithetic pairing.
func (r *mlRunner) RunAntithetic(seed uint64, antithetic bool) (sim.Result, error) {
	b := r.b
	r.str.Reseed(seed)
	remaining := b.req.Tbase
	var out sim.Result
	out.Period = b.req.Period
	var t, work float64
	for {
		res := r.inner.RunWorkAntithetic(r.str.Uint64(), remaining, antithetic)
		out.Failures += res.Failures
		out.FailuresInRisk += res.FailuresInRisk
		out.RiskTime += res.RiskTime
		out.ImportanceFatalProb += res.ImportanceFatalProb
		if !res.Fatal {
			// Completed (or saturated inside the attempt's own horizon).
			t += res.Makespan + b.mc.G*math.Floor(res.WorkDone/b.globalWork)
			work += res.WorkDone
			out.Completed = res.Completed
			break
		}
		// Fatal buddy-group failure: roll back to the last global
		// checkpoint. Work preserved = whole global intervals dumped
		// before the fatality; time paid = the attempt up to the
		// fatality, its dumps, and the global reload.
		dumps := math.Floor(res.WorkDone / b.globalWork)
		t += res.FatalTime + b.mc.G*dumps + b.mc.Params.D + b.mc.Rg
		work += dumps * b.globalWork
		remaining -= dumps * b.globalWork
		if t >= b.horizon {
			break // the deployment never finishes inside the horizon
		}
	}
	out.Makespan = t
	out.WorkDone = work
	if t > 0 {
		out.Waste = 1 - work/t
	}
	out.LostTime = t - (b.inner.FaultFreeMakespan(work) + b.mc.G*math.Floor(work/b.globalWork))
	return out, nil
}
