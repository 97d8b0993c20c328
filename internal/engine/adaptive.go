package engine

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// This file implements the adaptive-precision executor (DESIGN.md,
// "Adaptive precision"): instead of burning one fixed Monte-Carlo
// budget per point, a point runs in deterministic geometric rounds and
// stops as soon as the waste estimate reaches a requested relative
// precision. Two variance-reduction layers make every round worth
// more:
//
//   - antithetic pairing: consecutive runs share a seed, one drawing
//     the reflected-uniform failure sample (sim.AggregateAntithetic),
//     so the pair mean cancels the first-order sampling noise of the
//     inter-arrival times. The estimators accumulate one observation
//     per pair — pairs are mutually independent even though the runs
//     inside one are deliberately anticorrelated — so the stopping CI
//     is statistically valid and the pairing's variance reduction
//     shows up in it directly;
//   - a control variate: each pair's mean failure count, whose
//     expectation the analytic first-order model supplies
//     (λ·Tbase/(1−W_model)), regression-adjusts the waste mean through
//     stats.Controlled.
//
// The round schedule, the pairing and the stopping rule depend only on
// the batch, the content-keyed base seed and the Precision spec —
// never on the worker count or wall-clock — so adaptive points are as
// deterministic (and as resumable) as fixed-budget ones. On the fast
// backend's i.i.d. batches the rounds run on the lane kernel, whose
// runs are statistically, not bitwise, equivalent to the scalar
// Runner's: an adaptive point there estimates the same waste as the
// scalar path, from different draws.

// Precision is the adaptive stopping specification of one point.
type Precision struct {
	// TargetRelErr is the requested relative precision: rounds stop
	// once the 95% CI half-width of the waste estimate falls to
	// TargetRelErr × |waste|. 0 disables adaptive execution.
	TargetRelErr float64
	// MinRuns is the first round's size (default 8). Doubling rounds
	// follow: MinRuns, 2·MinRuns, 4·MinRuns, … up to MaxRuns.
	MinRuns int
	// MaxRuns caps the total budget (default 32×MinRuns).
	MaxRuns int
}

// Enabled reports whether the spec requests adaptive execution.
func (p Precision) Enabled() bool { return p.TargetRelErr > 0 }

// withDefaults normalizes the spec. Round sizes are whole antithetic
// pairs — the estimator works on pair means, so a round must never
// end between the halves of a pair: MinRuns rounds up (a first round
// is always at least one whole pair) and MaxRuns rounds down, so the
// executed budget never exceeds the requested cap. A cap that cannot
// fit the pair-rounded first round (both odd and equal) is a spec
// error, not a silent overrun.
func (p Precision) withDefaults() (Precision, error) {
	if !(p.TargetRelErr > 0) || p.TargetRelErr >= 1 || math.IsNaN(p.TargetRelErr) {
		return p, fmt.Errorf("engine: targetRelErr = %v must be in (0, 1)", p.TargetRelErr)
	}
	if p.MinRuns <= 0 {
		p.MinRuns = 8
	}
	if p.MaxRuns <= 0 {
		p.MaxRuns = 32 * p.MinRuns
	}
	requested := p.MaxRuns
	p.MinRuns += p.MinRuns & 1
	p.MaxRuns -= p.MaxRuns & 1
	if p.MaxRuns < p.MinRuns {
		return p, fmt.Errorf("engine: maxRuns = %d below the %d-run first round (whole antithetic pairs)",
			requested, p.MinRuns)
	}
	return p, nil
}

// AdaptiveResult is the outcome of one adaptive point.
type AdaptiveResult struct {
	// Agg is the plain aggregate over every executed run, the same
	// shape a fixed-budget evaluation returns (raw mean, raw CI).
	Agg sim.Aggregate
	// PairWaste accumulates one waste observation per antithetic pair
	// (the mean of the pair's completed halves). Pairs are mutually
	// independent even though the runs within one are deliberately
	// anticorrelated, so its CI95 is a valid 95% interval that credits
	// the pairing — unlike Agg.Waste's, which treats the paired runs as
	// i.i.d.
	PairWaste stats.Sample
	// Controlled is the regression-adjusted waste accumulator over the
	// same per-pair observations (Mu is the model-implied expected
	// failure count, identical for a run and a pair mean).
	Controlled stats.Controlled
	// RunsUsed is the number of runs actually simulated; Rounds the
	// number of rounds they took.
	RunsUsed int
	Rounds   int
	// Estimate is the variance-reduced waste estimate the stopper
	// tracked (the controlled mean when the control is informative, the
	// raw mean otherwise), and CI95 its half-width.
	Estimate float64
	CI95     float64
	// Converged reports whether the target was met before MaxRuns.
	Converged bool
}

// RelErr returns the achieved relative error of the estimate.
func (r AdaptiveResult) RelErr() float64 {
	if r.CI95 == 0 {
		return 0
	}
	if r.Estimate == 0 {
		return math.Inf(1)
	}
	return r.CI95 / math.Abs(r.Estimate)
}

// controlMu returns the analytic expectation of the per-run failure
// count at the batch's resolved request — the control variate's known
// mean: the expected makespan Tbase/(1−W_model) times the platform
// failure rate 1/M. It returns NaN (control disabled) when the model
// offers no finite prediction. The model is first-order, so the
// expectation carries an O(W²) bias; the induced estimator bias is
// β·(μ_true − μ_model), second-order small, and the stopping CI is
// computed against the model-consistent estimator either way (the
// DESIGN.md section quantifies this).
func controlMu(b Batch) float64 {
	req := b.Request()
	w := b.Model().Waste
	if !(w >= 0) || w >= 1 || !(req.Params.M > 0) || !(req.Tbase > 0) {
		return math.NaN()
	}
	return req.Tbase / (1 - w) / req.Params.M
}

// RunAdaptive evaluates the batch to the requested precision: rounds
// of antithetically paired runs (seeds base+0, base+0ʳ, base+1,
// base+1ʳ, …) are executed through the chunked deterministic
// aggregation and merged across rounds, and after each round the
// stopper compares the variance-reduced CI against the target. The
// result — including RunsUsed — is bitwise independent of the worker
// count, and re-executing the same (batch, base, spec) replays it
// exactly.
func RunAdaptive(b Batch, base uint64, spec Precision, workers int) (AdaptiveResult, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return AdaptiveResult{}, err
	}
	var (
		runners []Runner
		out     AdaptiveResult
	)
	out.Controlled.Mu = controlMu(b)
	useControl := !math.IsNaN(out.Controlled.Mu)
	if !useControl {
		out.Controlled.Mu = 0
	}
	newRunner := func(w int) func(uint64, bool) (sim.Result, error) {
		// Runners persist across rounds (they are reset per seed), so
		// later rounds reuse the compiled substrates the first round
		// built — the multilevel backend's RunWork resumption and the
		// detailed backend's in-place substrate rewind compose with the
		// round loop for free.
		for len(runners) <= w {
			runners = append(runners, b.NewRunner())
		}
		return runners[w].RunAntithetic
	}
	// The estimators work on antithetic pairs: observe sees results in
	// run-index order (the in-order Add pass of the chunked
	// aggregation), so even indices stash the plain half and odd
	// indices fold the pair. A pair contributes the mean of its
	// completed halves (or the single completed half, or nothing);
	// round sizes are whole pairs, so no pair straddles an estimate.
	var (
		nextRun int
		plain   sim.Result
		// failedPairs counts the pair observations whose control is
		// positive: pairs in which a completed half saw a failure.
		failedPairs int
	)
	add := func(w, c float64) {
		out.PairWaste.Add(w)
		out.Controlled.Add(w, c)
		if c > 0 {
			failedPairs++
		}
	}
	observe := func(res sim.Result) {
		j := nextRun
		nextRun++
		if j&1 == 0 {
			plain = res
			return
		}
		switch {
		case plain.Completed && res.Completed:
			add((plain.Waste+res.Waste)/2, (float64(plain.Failures)+float64(res.Failures))/2)
		case plain.Completed:
			add(plain.Waste, float64(plain.Failures))
		case res.Completed:
			add(res.Waste, float64(res.Failures))
		}
	}
	// Batches implementing AntitheticRunner (the fast backend's
	// lane-batched kernel) execute each round through it: the index
	// mapping, chunking and observe order are AggregateAntithetic's, so
	// the rounds — and with them the stopper's every decision — are
	// bitwise independent of the worker count and the round split.
	antiRunner, batched := b.(AntitheticRunner)
	for target := spec.MinRuns; ; target = min(2*target, spec.MaxRuns) {
		var (
			part sim.Aggregate
			err  error
		)
		if batched {
			part, err = antiRunner.RunAntitheticSeeded(base, out.RunsUsed,
				target-out.RunsUsed, workers, observe)
		} else {
			part, err = sim.AggregateAntithetic(base, out.RunsUsed, target-out.RunsUsed,
				workers, newRunner, observe)
		}
		if err != nil {
			return AdaptiveResult{}, err
		}
		out.Agg.Merge(part)
		out.RunsUsed = target
		out.Rounds++
		out.Estimate, out.CI95 = adaptiveEstimate(&out.PairWaste, &out.Controlled,
			useControl && failedPairs >= minFailedPairs)
		// A CI of 0 is no precision. It reads 0 when fewer than 2 pairs
		// completed (a fatal-heavy round) and when every pair's waste is
		// identical (every pair fault-free at low failure pressure, where
		// the rare failing pair is exactly what the estimate is missing):
		// either way the variance is 0, and the point keeps running.
		if out.PairWaste.Variance() > 0 && out.CI95 <= spec.TargetRelErr*math.Abs(out.Estimate) {
			out.Converged = true
			return out, nil
		}
		if target >= spec.MaxRuns {
			return out, nil
		}
	}
}

// minFailedPairs is how many pairs must have seen a failure before the
// control-variate CI may stand in for the pair-mean CI. With only a
// few failing pairs, the waste is nearly an exact linear function of
// the failure count (every fault-free pair shares one waste), so the
// regression's residual variance — and the controlled CI — collapses
// toward 0 long before the rare failing pairs are sampled well. At
// M 86400 s and tbase 1e4 (target 0.08) that stopped the median point
// after 16 runs, with a −17 % mean bias and 38 % coverage; with this
// floor the median point runs 512, the bias is −0.3 % and coverage
// 0.89 (TestRunAdaptiveCoverageLowPressure).
const minFailedPairs = 8

// adaptiveEstimate picks the tighter of the pair-mean and the
// regression-adjusted waste estimate. Both are computed over mutually
// independent per-pair observations, so both CIs are valid; the
// controlled estimator is considered only when the caller allows it
// (a model control exists and enough pairs saw a failure for β̂ to
// mean anything). Both branches are deterministic functions of the
// accumulated moments, so the choice — like everything else in the
// stopper — replays bitwise.
func adaptiveEstimate(pairs *stats.Sample, ctrl *stats.Controlled, useControl bool) (est, ci float64) {
	est, ci = pairs.Mean(), pairs.CI95()
	if !useControl {
		return est, ci
	}
	if cci := ctrl.CI95(); cci < ci {
		return ctrl.Mean(), cci
	}
	return est, ci
}
