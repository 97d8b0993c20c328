package sim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// laneTestConfigs spans the regimes the lane kernel must replicate:
// every protocol family (double/triple, blocking/non-blocking),
// healthy and hostile MTBFs (many fault-free periods per failure vs a
// failure every few periods), φ = 0 and φ > 0, a saturating horizon,
// and a long high-pressure run where failures land after re-execution
// in every phase and single advances span many periods.
func laneTestConfigs() []Config {
	p := scenario.Base().Params
	var cfgs []Config
	for _, pr := range core.Protocols {
		cfgs = append(cfgs,
			Config{Protocol: pr, Params: p.WithMTBF(1800), Phi: 1, Tbase: 2e4},
			Config{Protocol: pr, Params: p.WithMTBF(450), Phi: 0.5, Tbase: 1e4},
		)
	}
	// Failure-rich: fatal chains and risk-window overlaps are common.
	cfgs = append(cfgs,
		Config{Protocol: core.DoubleNBL, Params: p.WithMTBF(150), Phi: 1, Tbase: 5e3},
		Config{Protocol: core.TripleBoF, Params: p.WithMTBF(150), Phi: 0, Tbase: 5e3},
		// Tight horizon: some runs saturate instead of completing.
		Config{Protocol: core.DoubleBoF, Params: p.WithMTBF(300), Phi: 1, Tbase: 1e4, MaxSimTime: 1.2e4},
		Config{Protocol: core.DoubleNBL, Params: p.WithMTBF(600), Phi: 1, Tbase: 1e5},
	)
	return cfgs
}

// TestLaneRunnerSamplerBatchInvariant checks the prefetch depth is
// pure mechanics: any batch size (including 1, the no-batching
// diagnostic layer) yields the same bits.
func TestLaneRunnerSamplerBatchInvariant(t *testing.T) {
	cfg := Config{Protocol: core.DoubleNBL, Params: scenario.Base().Params.WithMTBF(450), Phi: 1, Tbase: 1e4}
	b, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const width = 4
	seeds := []uint64{3, 5, 7, 11}
	want := make([]Result, width)
	got := make([]Result, width)
	ref, err := b.NewLaneRunner(width)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunBatch(seeds, nil, want)
	for _, batch := range []int{1, 2, 7, 64, 256} {
		lr, err := b.NewLaneRunner(width)
		if err != nil {
			t.Fatal(err)
		}
		lr.SetSamplerBatch(batch)
		lr.RunBatch(seeds, nil, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sampler batch %d seed %d: %+v != %+v", batch, seeds[i], got[i], want[i])
			}
		}
	}
}

// TestLaneRunnerBatchPositionInvariant pins the contract the batch
// executor relies on: a lane Result is a pure function of its (seed,
// reflection flag), whatever else shares the batch and wherever in it
// the run sits. A 16-seed batch with mixed flags, the same batch
// permuted, and each seed alone in a one-lane runner must agree
// bitwise on every config.
func TestLaneRunnerBatchPositionInvariant(t *testing.T) {
	const n = 16
	seeds := make([]uint64, n)
	anti := make([]bool, n)
	for l := range seeds {
		seeds[l] = uint64(40 + l/2)
		anti[l] = l%3 == 1
	}
	perm := []int{5, 12, 0, 9, 15, 3, 7, 1, 14, 10, 2, 8, 13, 6, 11, 4}
	pSeeds := make([]uint64, n)
	pAnti := make([]bool, n)
	for i, l := range perm {
		pSeeds[i], pAnti[i] = seeds[l], anti[l]
	}
	want := make([]Result, n)
	got := make([]Result, n)
	for ci, cfg := range laneTestConfigs() {
		b, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := b.NewLaneRunner(n)
		if err != nil {
			t.Fatal(err)
		}
		one, err := b.NewLaneRunner(1)
		if err != nil {
			t.Fatal(err)
		}
		wide.RunBatch(seeds, anti, want)
		wide.RunBatch(pSeeds, pAnti, got)
		for i, l := range perm {
			if got[i] != want[l] {
				t.Fatalf("config %d seed %d anti %v: permuted to lane %d %+v, in lane %d %+v",
					ci, seeds[l], anti[l], i, got[i], l, want[l])
			}
		}
		for l := range seeds {
			one.RunBatch(seeds[l:l+1], anti[l:l+1], got[:1])
			if got[0] != want[l] {
				t.Fatalf("config %d seed %d anti %v: alone %+v, in lane %d %+v",
					ci, seeds[l], anti[l], got[0], l, want[l])
			}
		}
	}
}

// TestLaneRunnerReboundMatchesFresh pins the process-wide pool's
// contract: a runner rebound from batch to batch produces bitwise the
// Results of a fresh NewLaneRunner on each batch. The batch sequence
// changes N, M and tbase, so the sampler buffer grows (8 → 64 events
// per lane), shrinks and grows again, and plain and antithetic batches
// alternate, so every configuration runs on both schedules and a
// plain batch follows an antithetic one.
func TestLaneRunnerReboundMatchesFresh(t *testing.T) {
	p := scenario.Base().Params
	small := p.WithMTBF(150)
	small.N = 2592
	tiny := p.WithMTBF(450)
	tiny.N = 96
	cfgs := []Config{
		{Protocol: core.DoubleNBL, Params: p.WithMTBF(1800), Phi: 1, Tbase: 2e4},
		{Protocol: core.TripleBoF, Params: small, Phi: 0, Tbase: 5e4},
		{Protocol: core.DoubleBoF, Params: tiny, Phi: 0.5, Tbase: 1e4},
		{Protocol: core.TripleNBL, Params: p.WithMTBF(300), Phi: 1, Tbase: 2e4, MaxSimTime: 2.4e4},
	}
	seeds := make([]uint64, DefaultLaneWidth)
	anti := make([]bool, DefaultLaneWidth)
	want := make([]Result, DefaultLaneWidth)
	got := make([]Result, DefaultLaneWidth)
	var rebound *LaneRunner
	for step := 0; step < 2*len(cfgs); step++ {
		cfg, antithetic := cfgs[step%len(cfgs)], (step+step/len(cfgs))%2 == 1
		b, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := b.NewLaneRunner(DefaultLaneWidth)
		if err != nil {
			t.Fatal(err)
		}
		if rebound == nil {
			rebound, err = b.NewLaneRunner(DefaultLaneWidth)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			rebound.bind(b)
		}
		var flags []bool
		for l := range seeds {
			seeds[l] = uint64(100*step + l)
			if antithetic {
				seeds[l] = uint64(100*step + l/2)
				anti[l] = l&1 == 1
				flags = anti
			}
		}
		fresh.RunBatch(seeds, flags, want)
		rebound.RunBatch(seeds, flags, got)
		for l := range got {
			if got[l] != want[l] {
				t.Fatalf("step %d (config %d, antithetic %v, sampler batch %d) lane %d:\nrebound %+v\nfresh   %+v",
					step, step%len(cfgs), antithetic, len(rebound.evTime), l, got[l], want[l])
			}
		}
	}
}

// TestRunManySeededConcurrentBatchesSharePool runs different batches
// from several goroutines at once, so the process-wide lane pool hands
// runners back and forth between batches and modes while they run.
// Every Aggregate must equal the batch's sequential reference; under
// -race this is the pool's concurrency check.
func TestRunManySeededConcurrentBatchesSharePool(t *testing.T) {
	cfgs := laneTestConfigs()[:6]
	batches := make([]*Batch, len(cfgs))
	want := make([]Aggregate, len(cfgs))
	wantAnti := make([]Aggregate, len(cfgs))
	for i, cfg := range cfgs {
		b, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batches[i] = b
		if want[i], err = b.RunManySeeded(uint64(i), 40, 1); err != nil {
			t.Fatal(err)
		}
		if wantAnti[i], err = b.RunAntitheticSeeded(uint64(i), 0, 40, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				i := (g + round) % len(batches)
				got, err := batches[i].RunManySeeded(uint64(i), 40, 2)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d batch %d: production aggregate differs (err %v)", g, i, err)
				}
				got, err = batches[i].RunAntitheticSeeded(uint64(i), 0, 40, 2, nil)
				if err != nil || !reflect.DeepEqual(got, wantAnti[i]) {
					t.Errorf("goroutine %d batch %d: antithetic aggregate differs (err %v)", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunManySeededLaneWorkerInvariantAndStatistical pins the executor
// rewiring on both halves of its contract. The production lane path is
// deterministic per seed and chunk-merged, so the Aggregate must be
// bitwise identical for every worker count — the merge-equivalence
// guarantee the sweep cache and the fabric's byte identity stand on.
// Against the scalar oracle the production path (closed-form replay,
// ziggurat draws) is statistically — not bitwise — equivalent: the
// waste means must agree within 3σ of the combined standard error.
func TestRunManySeededLaneWorkerInvariantAndStatistical(t *testing.T) {
	cfg := Config{Protocol: core.TripleNBL, Params: scenario.Base().Params.WithMTBF(600), Phi: 1, Tbase: 1e4}
	b, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 300 // > one chunk, with a partial tail chunk and a tail lane group
	scalar, err := AggregateSeeded(42, runs, 2, func(int) func(uint64) (Result, error) {
		r := b.NewRunner()
		return func(seed uint64) (Result, error) { return r.Run(seed), nil }
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.RunManySeeded(42, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7} {
		got, err := b.RunManySeeded(42, runs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers %d: lane aggregate differs from the 1-worker aggregate", workers)
		}
	}
	diff := want.Waste.Mean() - scalar.Waste.Mean()
	if diff < 0 {
		diff = -diff
	}
	seLane := want.Waste.CI95() / 1.96
	seScalar := scalar.Waste.CI95() / 1.96
	if limit := 3 * (seLane + seScalar); diff > limit {
		t.Fatalf("lane waste mean %v vs scalar %v: |diff| %v > 3σ limit %v",
			want.Waste.Mean(), scalar.Waste.Mean(), diff, limit)
	}
}

// TestRunAntitheticSeededWorkerAndRoundSplitBitwise pins the
// determinism the adaptive executor builds on, on the lane path: each
// round's Aggregate and observed Results are bitwise independent of
// the worker count, and the Results observed over the rounds {0,16},
// {16,16}, {32,8} are bitwise those of one uninterrupted 40-run round
// — run j is a pure function of (base, j) — in run-index order.
func TestRunAntitheticSeededWorkerAndRoundSplitBitwise(t *testing.T) {
	b, err := Compile(antiTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var whole []Result
	if _, err := b.RunAntitheticSeeded(7, 0, 40, 1, func(r Result) { whole = append(whole, r) }); err != nil {
		t.Fatal(err)
	}
	rounds := []struct{ first, runs int }{{0, 16}, {16, 16}, {32, 8}}
	for _, workers := range []int{1, 2, 4} {
		var split []Result
		for _, round := range rounds {
			var seen []Result
			got, err := b.RunAntitheticSeeded(7, round.first, round.runs, workers,
				func(r Result) { seen = append(seen, r) })
			if err != nil {
				t.Fatal(err)
			}
			want, err := b.RunAntitheticSeeded(7, round.first, round.runs, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %+v: aggregate on %d workers differs from 1 worker", round, workers)
			}
			var agg Aggregate
			for _, r := range seen {
				agg.Add(r)
			}
			if agg != got {
				t.Fatalf("round %+v workers %d: observed Results do not fold to the aggregate", round, workers)
			}
			split = append(split, seen...)
		}
		if len(split) != len(whole) {
			t.Fatalf("workers %d: rounds observed %d results, want %d", workers, len(split), len(whole))
		}
		for j := range split {
			if split[j] != whole[j] {
				t.Fatalf("workers %d: run %d differs between the split rounds and one round:\n%+v\n%+v",
					workers, j, split[j], whole[j])
			}
		}
	}
	// Pairs share a seed on adjacent lanes: run 2k is seed 7+k plain and
	// run 2k+1 its reflection.
	lr, err := b.NewLaneRunner(2)
	if err != nil {
		t.Fatal(err)
	}
	pair := make([]Result, 2)
	lr.RunBatch([]uint64{7 + 3, 7 + 3}, []bool{false, true}, pair)
	if pair[0] != whole[6] || pair[1] != whole[7] {
		t.Fatalf("runs 6, 7 are not pair 3 of the schedule:\n%+v\n%+v", whole[6:8], pair)
	}
}

// TestLaneRunnerZigguratStatistical: the lane kernel (closed-form
// fast-forward, ziggurat draws) is statistically, not bitwise,
// equivalent to the scalar Runner (stepwise replay, inverse-CDF
// draws). On every laneTestConfigs configuration, for the plain and
// the reflected half, the means of waste, makespan and failures and
// the fatal and completed rates must agree within 3σ of their
// difference. The two sides use disjoint seeds, so the samples are
// independent. Equal seeds stay bitwise deterministic.
func TestLaneRunnerZigguratStatistical(t *testing.T) {
	const runs = 640
	for ci, cfg := range laneTestConfigs() {
		b, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scalar := b.NewRunner()
		for _, reflected := range []bool{false, true} {
			lane := func() Aggregate {
				lr, err := b.NewLaneRunner(DefaultLaneWidth)
				if err != nil {
					t.Fatal(err)
				}
				seeds := make([]uint64, DefaultLaneWidth)
				anti := make([]bool, DefaultLaneWidth)
				out := make([]Result, DefaultLaneWidth)
				var agg Aggregate
				for lo := 0; lo < runs; lo += DefaultLaneWidth {
					for l := range seeds {
						seeds[l], anti[l] = uint64(lo+l), reflected
					}
					lr.RunBatch(seeds, anti, out)
					for _, r := range out {
						agg.Add(r)
					}
				}
				return agg
			}
			got := lane()
			if again := lane(); again != got {
				t.Fatalf("config %d reflected %v: lane kernel not deterministic for equal seeds", ci, reflected)
			}
			var want Aggregate
			for seed := uint64(1 << 32); seed < 1<<32+runs; seed++ {
				want.Add(scalar.RunAntithetic(seed, reflected))
			}
			for _, m := range []struct {
				name       string
				lane, scal stats.Sample
			}{
				{"waste", got.Waste, want.Waste},
				{"makespan", got.Makespan, want.Makespan},
				{"failures", got.Failures, want.Failures},
			} {
				d := math.Abs(m.lane.Mean() - m.scal.Mean())
				if lim := 3 * math.Hypot(m.lane.StdErr(), m.scal.StdErr()); d > lim {
					t.Errorf("config %d reflected %v: %s mean lane %v vs scalar %v: |diff| %v > 3σ %v",
						ci, reflected, m.name, m.lane.Mean(), m.scal.Mean(), d, lim)
				}
			}
			for _, m := range []struct {
				name       string
				lane, scal stats.Proportion
			}{
				{"fatal", got.Fatal, want.Fatal},
				{"completed", got.Completed, want.Completed},
			} {
				p := (m.lane.Rate() + m.scal.Rate()) / 2
				d := math.Abs(m.lane.Rate() - m.scal.Rate())
				if lim := 3 * math.Sqrt(p*(1-p)*2/runs); d > lim {
					t.Errorf("config %d reflected %v: %s rate lane %v vs scalar %v: |diff| %v > 3σ %v",
						ci, reflected, m.name, m.lane.Rate(), m.scal.Rate(), d, lim)
				}
			}
		}
	}
}

// TestLaneRunnerSteadyStateZeroAllocs extends the scalar kernel's
// zero-allocation guarantee to the lane kernel: after the first batch,
// RunBatch allocates nothing.
func TestLaneRunnerSteadyStateZeroAllocs(t *testing.T) {
	cfg := Config{Protocol: core.DoubleNBL, Params: scenario.Base().Params.WithMTBF(900), Phi: 1, Tbase: 1e4}
	b, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := b.NewLaneRunner(8)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, 8)
	out := make([]Result, 8)
	warm := func(base uint64) {
		for i := range seeds {
			seeds[i] = base + uint64(i)
		}
		lr.RunBatch(seeds, nil, out)
	}
	warm(0)
	allocs := testing.AllocsPerRun(10, func() { warm(8) })
	if allocs != 0 {
		t.Fatalf("steady-state RunBatch allocates %.1f times per batch, want 0", allocs)
	}
}
