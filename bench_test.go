package repro

// One benchmark per table/figure of the paper's evaluation (§VI), plus
// the Monte-Carlo validation and the ablations of DESIGN.md. Each
// benchmark regenerates its artifact b.N times and reports the
// headline metric the paper quotes for that figure, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction report. Full-resolution artifacts are
// written by cmd/repro.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memory"
	"repro/internal/multilevel"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchPoints keeps the per-iteration grids small; cmd/repro renders
// the full-resolution figures.
const benchPoints = 16

var logOnce sync.Once

// logHeadline prints the paper-vs-measured summary a single time.
func logHeadline(b *testing.B) {
	logOnce.Do(func() {
		b.Logf("\n%s\n%s", experiments.TableI(), experiments.Summarize())
	})
}

// BenchmarkTable1Scenarios regenerates Table I.
func BenchmarkTable1Scenarios(b *testing.B) {
	var table string
	for i := 0; i < b.N; i++ {
		table = experiments.TableI()
	}
	if !strings.Contains(table, "Exa") {
		b.Fatal("table truncated")
	}
	logHeadline(b)
}

// wasteSurfaceBench regenerates the three waste surfaces of Fig. 4
// (Base) or Fig. 7 (Exa) and reports the saturation MTBF shape: the
// waste of each protocol at M = 1 h, φ/R = 0.25.
func wasteSurfaceBench(b *testing.B, sc scenario.Scenario) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, pr := range []core.Protocol{core.DoubleBoF, core.DoubleNBL, core.TripleNBL} {
			s := experiments.WasteSurface(sc, pr, benchPoints, benchPoints)
			if lo, hi := s.MinMax(); lo < 0 || hi > 1 {
				b.Fatalf("%s: waste out of range [%v, %v]", pr, lo, hi)
			}
		}
	}
	p := sc.Params.WithMTBF(scenario.Hour)
	phi := 0.25 * p.R
	b.ReportMetric(core.OptimalWaste(core.DoubleBoF, p, phi), "waste-BoF@1h")
	b.ReportMetric(core.OptimalWaste(core.DoubleNBL, p, phi), "waste-NBL@1h")
	b.ReportMetric(core.OptimalWaste(core.TripleNBL, p, phi), "waste-Triple@1h")
	logHeadline(b)
}

// BenchmarkFigure4WasteBase regenerates Fig. 4a/4b/4c.
func BenchmarkFigure4WasteBase(b *testing.B) { wasteSurfaceBench(b, scenario.Base()) }

// BenchmarkFigure7WasteExa regenerates Fig. 7a/7b/7c.
func BenchmarkFigure7WasteExa(b *testing.B) { wasteSurfaceBench(b, scenario.Exa()) }

// wasteRatioBench regenerates Fig. 5 or Fig. 8 and reports the two
// ratios the paper's text quotes.
func wasteRatioBench(b *testing.B, series func(int) []*stats.Series) {
	b.Helper()
	var tri []float64
	for i := 0; i < b.N; i++ {
		ss := series(20)
		tri = ss[1].Ys
	}
	b.ReportMetric(tri[2], "Triple/NBL@0.1")
	b.ReportMetric(tri[len(tri)-1], "Triple/NBL@1.0")
	logHeadline(b)
}

// BenchmarkFigure5WasteRatioBase regenerates Fig. 5 (Base, M = 7h).
// Paper: Triple/DoubleNBL ≈ 0.6 at φ/R = 0.1 and ≤ ~1.15 at φ/R = 1.
func BenchmarkFigure5WasteRatioBase(b *testing.B) {
	wasteRatioBench(b, experiments.Figure5)
}

// BenchmarkFigure8WasteRatioExa regenerates Fig. 8 (Exa, M = 7h).
// Paper: Triple's gain reaches ~25% at φ/R = 1/10.
func BenchmarkFigure8WasteRatioExa(b *testing.B) {
	wasteRatioBench(b, experiments.Figure8)
}

// riskBench regenerates a Fig. 6/9 panel set and reports the worst-
// corner ratios (smallest MTBF, longest exploitation).
func riskBench(b *testing.B, panels func(int) []*stats.Surface) {
	b.Helper()
	var corner [3]float64
	for i := 0; i < b.N; i++ {
		ps := panels(benchPoints)
		for k, s := range ps {
			corner[k] = s.Z[0][len(s.Ys)-1]
		}
	}
	b.ReportMetric(corner[0], "NBL/BoF-corner")
	b.ReportMetric(corner[1], "BoF/Triple-corner")
	b.ReportMetric(corner[2], "NBL/Triple-corner")
	logHeadline(b)
}

// BenchmarkFigure6RiskBase regenerates Fig. 6a/6b (Base success-
// probability ratios, θ = (α+1)R).
func BenchmarkFigure6RiskBase(b *testing.B) { riskBench(b, experiments.Figure6) }

// BenchmarkFigure9RiskExa regenerates Fig. 9a/9b (Exa).
func BenchmarkFigure9RiskExa(b *testing.B) { riskBench(b, experiments.Figure9) }

// BenchmarkSimulationValidation runs the Monte-Carlo validation table
// (model vs simulated waste for every protocol) and reports the worst
// relative disagreement.
func BenchmarkSimulationValidation(b *testing.B) {
	worst := 0.0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Validate(scenario.Base(), 1800, 0.25, 1e5, 8, 42)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			rel := (r.SimWaste - r.ModelWaste) / r.ModelWaste
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst, "worst-rel-err")
	logHeadline(b)
}

// BenchmarkAblationCrossover locates the Triple-vs-DoubleNBL waste
// crossover (analysis: φ/R = δ/R = 0.5 on Base).
func BenchmarkAblationCrossover(b *testing.B) {
	var x float64
	for i := 0; i < b.N; i++ {
		x = experiments.CrossoverPhiFrac(scenario.Base().Params)
	}
	b.ReportMetric(x, "crossover-phi/R")
}

// BenchmarkAblationAlphaSweep sweeps the new model parameter α.
func BenchmarkAblationAlphaSweep(b *testing.B) {
	alphas := []float64{0.5, 1, 2, 5, 10, 20, 50}
	var last float64
	for i := 0; i < b.N; i++ {
		s := experiments.AlphaSweep(scenario.Base(), 0.25, alphas)
		last = s.Ys[len(s.Ys)-1]
	}
	b.ReportMetric(last, "Triple/NBL@alpha50")
}

// BenchmarkAblationCOWPhi derives φ from the copy-on-write memory
// substrate (the paper's future-work measurement) and reports the
// fitted α.
func BenchmarkAblationCOWPhi(b *testing.B) {
	proc := &memory.Process{
		Pages:     65536,
		PageBytes: 4096,
		WriteRate: 20000,
		Weights:   memory.ZipfWeights(65536, 1.2),
	}
	thetas := []float64{4, 8, 16, 32, 44}
	var alpha float64
	for i := 0; i < b.N; i++ {
		curve, err := memory.PhiCurve(proc, thetas, 50e-6, memory.HotFirst, 20, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		alpha, err = memory.FitAlpha(curve, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(alpha, "fitted-alpha")
}

// BenchmarkExtensionMultilevel optimizes the two-level plan (buddy +
// global stable storage, the conclusion's proposed combination) and
// reports the waste premium the global level costs on a hostile
// platform (Base, M = 300 s).
func BenchmarkExtensionMultilevel(b *testing.B) {
	cfg := multilevel.Config{
		Protocol: core.DoubleNBL,
		Params:   scenario.Base().Params.WithMTBF(300),
		Phi:      0,
		G:        200,
		Rg:       200,
	}
	var plan multilevel.Plan
	for i := 0; i < b.N; i++ {
		var err error
		plan, err = multilevel.Optimize(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plan.Waste-plan.InnerWaste, "insurance-premium")
	b.ReportMetric(float64(plan.K), "k")
}

// BenchmarkExtensionWeibull runs the non-exponential failure study
// (§VII refs [8]-[10]) and reports how much bursty Weibull(0.7)
// failures inflate the waste over the exponential model's prediction.
func BenchmarkExtensionWeibull(b *testing.B) {
	var points []experiments.WeibullPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.WeibullStudy(scenario.Base(), 1800, 0.25, 5e4,
			[]float64{0.7}, 4, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].ExpWaste/points[0].ModelWaste, "weibull-inflation")
	b.ReportMetric(points[0].BestMultiplier, "best-period-mult")
}

// BenchmarkEngineThroughput measures the one-shot sim.Run (compile
// plus one scalar run per call) on a 30-minute-MTBF platform. The
// headline metric is rate-based — simulated failures processed per
// wall-clock second — alongside allocations per run, so regressions
// show up whether they cost time or memory. cmd/bench runs the same
// configuration, but its engine_throughput row times the lane kernel
// (compile once, full-width RunBatch calls) and its runner_throughput
// row the compiled scalar Runner.
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := sim.Config{
		Protocol: core.DoubleNBL,
		Params:   scenario.Base().Params.WithMTBF(1800),
		Phi:      1,
		Tbase:    1e6,
	}
	b.ReportAllocs()
	failures := 0
	total := 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		failures = res.Failures
		total += res.Failures
	}
	b.ReportMetric(float64(failures), "failures/run")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)/secs, "failures/sec")
	}
}
