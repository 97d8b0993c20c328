package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// compileBackend resolves and compiles the shared test point on one
// backend, with the MTBF override applied.
func compileBackend(t *testing.T, eng Engine, mtbf float64) Batch {
	t.Helper()
	req := baseRequest()
	req.Params = req.Params.WithMTBF(mtbf)
	req.Tbase = 1e4
	if eng.Name() == "multilevel" {
		req.Global = &Global{G: 50, Rg: 50}
	}
	resolved, err := eng.Resolve(req)
	if err != nil {
		t.Fatalf("%s: %v", eng.Name(), err)
	}
	b, err := eng.Compile(resolved)
	if err != nil {
		t.Fatalf("%s: %v", eng.Name(), err)
	}
	return b
}

// TestRunAntitheticFalseMatchesRunAllBackends pins the engine-level
// contract the adaptive executor builds on: on every backend,
// RunAntithetic(seed, false) is bitwise Run(seed), and the reflected
// half is deterministic and (on failure-rich points) different.
func TestRunAntitheticFalseMatchesRunAllBackends(t *testing.T) {
	for _, eng := range backends {
		b := compileBackend(t, eng, 900)
		r1, r2 := b.NewRunner(), b.NewRunner()
		differs := false
		for seed := uint64(0); seed < 6; seed++ {
			want, err := r1.Run(seed)
			if err != nil {
				t.Fatalf("%s: %v", eng.Name(), err)
			}
			plain, err := r2.RunAntithetic(seed, false)
			if err != nil {
				t.Fatalf("%s: %v", eng.Name(), err)
			}
			if plain != want {
				t.Fatalf("%s seed %d: RunAntithetic(false) != Run", eng.Name(), seed)
			}
			anti, err := r2.RunAntithetic(seed, true)
			if err != nil {
				t.Fatalf("%s: %v", eng.Name(), err)
			}
			anti2, err := r1.RunAntithetic(seed, true)
			if err != nil {
				t.Fatalf("%s: %v", eng.Name(), err)
			}
			if anti != anti2 {
				t.Fatalf("%s seed %d: antithetic run not deterministic", eng.Name(), seed)
			}
			if anti != want {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: antithetic runs never differed at a 900 s MTBF", eng.Name())
		}
	}
}

// TestRunAdaptiveWorkerIndependence pins the adaptive determinism
// guarantee on all three backends: the full AdaptiveResult — aggregate,
// controlled accumulator, rounds, RunsUsed, estimate — is bitwise
// independent of the worker count, and a re-execution replays it.
func TestRunAdaptiveWorkerIndependence(t *testing.T) {
	spec := Precision{TargetRelErr: 0.05, MinRuns: 8, MaxRuns: 64}
	for _, eng := range backends {
		b := compileBackend(t, eng, 900)
		serial, err := RunAdaptive(b, 42, spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		wide, err := RunAdaptive(b, 42, spec, 8)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if !reflect.DeepEqual(serial, wide) {
			t.Errorf("%s: adaptive result differs between 1 and 8 workers:\n%+v\n%+v",
				eng.Name(), serial, wide)
		}
		again, err := RunAdaptive(b, 42, spec, 4)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if !reflect.DeepEqual(serial, again) {
			t.Errorf("%s: adaptive result is not replayable", eng.Name())
		}
		if serial.RunsUsed != serial.Agg.Runs {
			t.Errorf("%s: RunsUsed %d != aggregated runs %d",
				eng.Name(), serial.RunsUsed, serial.Agg.Runs)
		}
		if serial.RunsUsed < spec.MinRuns || serial.RunsUsed > spec.MaxRuns {
			t.Errorf("%s: RunsUsed %d outside [%d, %d]",
				eng.Name(), serial.RunsUsed, spec.MinRuns, spec.MaxRuns)
		}
		if serial.Converged && serial.CI95 > spec.TargetRelErr*math.Abs(serial.Estimate) {
			t.Errorf("%s: converged with rel err %v above target", eng.Name(), serial.RelErr())
		}
	}
}

// TestRunAdaptiveBudgetIsDemandDriven is the economic argument: at one
// shared precision target, the spend per point follows that point's
// relative sampling noise instead of one global knob. A hostile MTBF
// concentrates waste (large mean, failures every run) and converges in
// the first rounds, while a healthy MTBF's tiny waste — dominated by
// rare single-failure outliers — needs an order of magnitude more runs
// to pin down to the same relative precision.
func TestRunAdaptiveBudgetIsDemandDriven(t *testing.T) {
	spec := Precision{TargetRelErr: 0.08, MinRuns: 8, MaxRuns: 1024}
	large, err := RunAdaptive(compileBackend(t, Fast{}, 600), 7, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	small, err := RunAdaptive(compileBackend(t, Fast{}, 86400), 7, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !large.Converged || !small.Converged {
		t.Fatalf("both points should converge within 1024 runs: %+v, %+v", large, small)
	}
	if small.RunsUsed <= 4*large.RunsUsed {
		t.Errorf("relative-noise spread not reflected in budgets: %d vs %d runs",
			large.RunsUsed, small.RunsUsed)
	}
	for _, res := range []AdaptiveResult{large, small} {
		if res.RelErr() > spec.TargetRelErr {
			t.Errorf("converged point missed the target: rel err %v > %v", res.RelErr(), spec.TargetRelErr)
		}
	}
}

// TestRunAdaptiveControlVariateTightensCI checks the variance
// reduction pays: on a failure-rich point the regression-adjusted CI
// is strictly tighter than the raw CI at the same sample, so the
// stopper needs fewer runs than a raw-CI stopper would.
func TestRunAdaptiveControlVariateTightensCI(t *testing.T) {
	b := compileBackend(t, Fast{}, 600)
	res, err := RunAdaptive(b, 3, Precision{TargetRelErr: 0.05, MinRuns: 32, MaxRuns: 2048}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Controlled.N() == 0 {
		t.Fatal("no completed runs fed the control accumulator")
	}
	raw := res.Agg.Waste.CI95()
	if res.CI95 >= raw {
		t.Errorf("variance-reduced CI %v not below raw CI %v (ESS %.1f at n=%d)",
			res.CI95, raw, res.Controlled.ESS(), res.Controlled.N())
	}
	if math.Abs(res.Estimate-res.Agg.Waste.Mean()) > 3*raw {
		t.Errorf("adjusted estimate %v implausibly far from raw mean %v",
			res.Estimate, res.Agg.Waste.Mean())
	}
}

// TestRunAdaptiveSpecValidation pins the spec gate.
func TestRunAdaptiveSpecValidation(t *testing.T) {
	b := compileBackend(t, Fast{}, 3600)
	for _, spec := range []Precision{
		{TargetRelErr: 0},
		{TargetRelErr: -0.1},
		{TargetRelErr: 1},
		{TargetRelErr: math.NaN()},
		{TargetRelErr: 0.05, MinRuns: 64, MaxRuns: 8},
		// Both odd and equal: the pair-rounded first round (8) cannot
		// fit the rounded-down cap (6) — an error, never a silent
		// budget overrun past the requested 7.
		{TargetRelErr: 0.05, MinRuns: 7, MaxRuns: 7},
	} {
		if _, err := RunAdaptive(b, 1, spec, 1); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// fatalBatch is a synthetic backend whose runs can be forced fatal,
// for exercising the degenerate adaptive paths real points only hit
// probabilistically.
type fatalBatch struct {
	req Request
	// completeSeed, when non-zero, is the one seed whose runs complete.
	completeSeed uint64
}

func (b fatalBatch) Request() Request { return b.req }
func (b fatalBatch) Model() Model     { return Model{Waste: 0.2, Loss: 1} }
func (b fatalBatch) NewRunner() Runner {
	return fatalRunner{b: b}
}

type fatalRunner struct{ b fatalBatch }

func (r fatalRunner) Run(seed uint64) (sim.Result, error) {
	return r.RunAntithetic(seed, false)
}

func (r fatalRunner) RunAntithetic(seed uint64, _ bool) (sim.Result, error) {
	if r.b.completeSeed != 0 && seed == r.b.completeSeed {
		return sim.Result{Completed: true, Waste: 0.25, Failures: 3}, nil
	}
	return sim.Result{Fatal: true, Failures: 2}, nil
}

// TestRunAdaptiveFatalHeavyNeverFakesConvergence pins the degenerate
// guard: with zero or one pair observations, the undefined variance
// reads as CI 0, which must not pass for precision — the point runs to
// MaxRuns unconverged instead of reporting a perfect-precision
// estimate backed by nothing.
func TestRunAdaptiveFatalHeavyNeverFakesConvergence(t *testing.T) {
	req := baseRequest()
	spec := Precision{TargetRelErr: 0.05, MinRuns: 8, MaxRuns: 64}

	allFatal, err := RunAdaptive(fatalBatch{req: req}, 100, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if allFatal.Converged || allFatal.RunsUsed != 64 {
		t.Errorf("all-fatal point claimed convergence: %+v", allFatal)
	}
	if allFatal.PairWaste.N() != 0 || allFatal.CI95 != 0 || allFatal.Estimate != 0 {
		t.Errorf("all-fatal point fabricated an estimate: %+v", allFatal)
	}

	// Exactly one pair (seed 100 = pair 0) completes: a single
	// observation is still no basis for a CI.
	onePair, err := RunAdaptive(fatalBatch{req: req, completeSeed: 100}, 100, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if onePair.Converged || onePair.RunsUsed != 64 {
		t.Errorf("single-observation point claimed convergence: %+v", onePair)
	}
	if onePair.PairWaste.N() != 1 || onePair.Estimate != 0.25 {
		t.Errorf("single-observation accounting off: %+v", onePair)
	}
}

// pressureBatch is a synthetic backend for the stopper's low-pressure
// rules: every run completes, and the runs of pair k (seed base+k)
// see one failure when failEvery divides k. A failure adds 0.1 to the
// 0.01 fault-free waste, so without jitter the waste is an exact
// linear function of the failure count; jitter adds a small
// seed-dependent term on top.
type pressureBatch struct {
	req       Request
	base      uint64
	failEvery uint64 // 0: no run fails
	jitter    bool
}

func (b pressureBatch) Request() Request  { return b.req }
func (b pressureBatch) Model() Model      { return Model{Waste: 0.02, Loss: 1} }
func (b pressureBatch) NewRunner() Runner { return pressureRunner{b: b} }

type pressureRunner struct{ b pressureBatch }

func (r pressureRunner) Run(seed uint64) (sim.Result, error) {
	return r.RunAntithetic(seed, false)
}

func (r pressureRunner) RunAntithetic(seed uint64, _ bool) (sim.Result, error) {
	res := sim.Result{Completed: true, Waste: 0.01}
	if e := r.b.failEvery; e != 0 && (seed-r.b.base)%e == 0 {
		res.Failures = 1
		res.Waste += 0.1
	}
	if r.b.jitter {
		res.Waste += 1e-4 * float64(seed%5)
	}
	return res, nil
}

// TestRunAdaptiveDegenerateCIKeepsRunning pins the stopper's two
// low-pressure rules. A point whose pairs all share one waste has a
// CI of 0, which is no precision: it runs to MaxRuns unconverged. A
// point where fewer than 8 pairs saw a failure reports the pair-mean
// CI, never the control-variate CI, which collapses to 0 when the
// waste is linear in the few failures seen. Once 8 pairs have failed,
// the tighter controlled CI is used.
func TestRunAdaptiveDegenerateCIKeepsRunning(t *testing.T) {
	const base = 100
	spec := Precision{TargetRelErr: 0.05, MinRuns: 8, MaxRuns: 64}
	run := func(b pressureBatch) AdaptiveResult {
		t.Helper()
		b.req, b.base = baseRequest(), base
		res, err := RunAdaptive(b, base, spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	quiet := run(pressureBatch{})
	if quiet.Converged || quiet.RunsUsed != 64 || quiet.CI95 != 0 || quiet.Estimate != 0.01 {
		t.Errorf("zero-variance point stopped or misreported: %+v", quiet)
	}

	// Pairs 0 and 16 fail: 2 failing pairs of 32.
	few := run(pressureBatch{failEvery: 16})
	if few.Converged || few.RunsUsed != 64 {
		t.Errorf("point with 2 failing pairs claimed convergence: %+v", few)
	}
	if few.CI95 == 0 || few.CI95 != few.PairWaste.CI95() || few.Estimate != few.PairWaste.Mean() {
		t.Errorf("point with 2 failing pairs did not report the pair-mean CI: %+v", few)
	}

	// Every other pair fails: the 8th failing pair arrives in the third
	// round (32 runs), and the controlled CI takes over there.
	many := run(pressureBatch{failEvery: 2, jitter: true})
	if !many.Converged || many.RunsUsed != 32 {
		t.Errorf("point with 8 failing pairs did not stop at 32 runs: %+v", many)
	}
	if many.CI95 != many.Controlled.CI95() || !(many.CI95 < many.PairWaste.CI95()) {
		t.Errorf("point with 8 failing pairs did not use the controlled CI: CI95 %v, controlled %v, pairs %v",
			many.CI95, many.Controlled.CI95(), many.PairWaste.CI95())
	}
}

// TestRunAdaptiveCoverageLowPressure measures what the adaptive CI
// promises at low failure pressure (fast backend, M 86400 s, tbase 1e4,
// target 0.08): over 1000 bases, the share of reported CIs that cover a
// 400000-run reference must be at least 0.85. Most runs there are
// fault-free, so a stopper that trusts a degenerate CI stops after a
// few fault-free pairs and undercovers badly (0.38 when the
// control-variate CI could stand on fewer than 8 failing pairs).
// Stopping when the CI first meets the target undercovers a little
// anyway, so the bound is below the nominal 0.95.
func TestRunAdaptiveCoverageLowPressure(t *testing.T) {
	b := compileBackend(t, Fast{}, 86400)
	ref, err := RunMany(b, 1<<40, 400_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	mu := ref.Waste.Mean()
	spec := Precision{TargetRelErr: 0.08, MinRuns: 8, MaxRuns: 1024}
	const bases = 1000
	covered := 0
	for k := uint64(0); k < bases; k++ {
		res, err := RunAdaptive(b, k<<20, spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Estimate-mu) <= res.CI95 {
			covered++
		}
	}
	if share := float64(covered) / bases; share < 0.85 {
		t.Errorf("adaptive CIs cover the reference %v (±%v) in %v of %d bases, want ≥ 0.85",
			mu, ref.Waste.CI95(), share, bases)
	}
}

// TestRunAdaptiveOddMaxRunsNeverExceeded pins the pair normalization
// direction: an odd cap rounds DOWN, so the executed (and echoed)
// budget never exceeds what the request allowed.
func TestRunAdaptiveOddMaxRunsNeverExceeded(t *testing.T) {
	spec := Precision{TargetRelErr: 0.05, MinRuns: 8, MaxRuns: 15}
	res, err := RunAdaptive(fatalBatch{req: baseRequest()}, 9, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.RunsUsed != 14 {
		t.Errorf("odd cap 15 should exhaust at 14 runs unconverged: %+v", res)
	}
}
