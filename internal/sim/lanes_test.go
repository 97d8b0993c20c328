package sim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// laneTestConfigs spans the regimes the lane kernel must replicate:
// every protocol family (double/triple, blocking/non-blocking),
// healthy and hostile MTBFs (long replay waves vs failure-rich
// stepwise walks), φ = 0 and φ > 0, and a saturating horizon.
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
	)
	return cfgs
}

// TestLaneRunnerMatchesScalarBitwise is the exact mode's core
// contract: lane l with seed s produces a Result bitwise identical to
// the scalar Runner's, across widths (including a tail-heavy width-3
// batch), protocols and failure regimes — the sampler and the replay
// addition sequence are shared, so the equivalence is exact, not
// statistical.
func TestLaneRunnerMatchesScalarBitwise(t *testing.T) {
	for ci, cfg := range laneTestConfigs() {
		b, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scalar := b.NewRunner()
		for _, width := range []int{1, 3, 8, 16} {
			lr, err := b.NewLaneRunner(width)
			if err != nil {
				t.Fatal(err)
			}
			lr.SetExact(true)
			seeds := make([]uint64, width)
			out := make([]Result, width)
			for base := uint64(0); base < 48; base += uint64(width) {
				for i := range seeds {
					seeds[i] = base + uint64(i)
				}
				lr.RunBatch(seeds, nil, out)
				for i, seed := range seeds {
					if want := scalar.Run(seed); out[i] != want {
						t.Fatalf("config %d width %d seed %d:\nlane   %+v\nscalar %+v",
							ci, width, seed, out[i], want)
					}
				}
			}
		}
	}
}

// TestLaneRunnerAntitheticMatchesScalar pins the reflected half: a
// lane with anti[l] = true is bitwise RunAntithetic(seed, true), with
// pairs laid out on adjacent lanes.
func TestLaneRunnerAntitheticMatchesScalar(t *testing.T) {
	for ci, cfg := range laneTestConfigs() {
		b, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scalar := b.NewRunner()
		const width = 8
		lr, err := b.NewLaneRunner(width)
		if err != nil {
			t.Fatal(err)
		}
		lr.SetExact(true)
		seeds := make([]uint64, width)
		anti := make([]bool, width)
		out := make([]Result, width)
		for j := 0; j < width; j++ {
			seeds[j] = uint64(j / 2) // pair j/2 on lanes 2⌊j/2⌋, 2⌊j/2⌋+1
			anti[j] = j&1 == 1
		}
		lr.RunBatch(seeds, anti, out)
		for j := 0; j < width; j++ {
			if want := scalar.RunAntithetic(seeds[j], anti[j]); out[j] != want {
				t.Fatalf("config %d lane %d (seed %d, anti %v):\nlane   %+v\nscalar %+v",
					ci, j, seeds[j], anti[j], out[j], want)
			}
		}
	}
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

// TestLaneRunnerReboundMatchesFresh pins the process-wide pool's
// contract: a runner rebound from batch to batch produces bitwise the
// Results of a fresh NewLaneRunner on each batch. The batch sequence
// changes N, M and tbase, so the sampler buffer grows (8 → 64 events
// per lane), shrinks and grows again, and the mode sequence runs
// production, exact and antithetic batches in turn, so every mode
// follows every other one — an antithetic batch followed by a
// production batch included. The last two batches come from
// tieRebindConfigs and run in the two exact modes: the second ties on
// the float grid in a binade where the first does not, so replay state
// kept across a rebind would show.
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
	cfgs = append(cfgs, tieRebindConfigs(t)...)
	const (
		production = iota
		exact
		antithetic
	)
	setMode := func(lr *LaneRunner, m int) { lr.SetExact(m != production) }
	seeds := make([]uint64, DefaultLaneWidth)
	anti := make([]bool, DefaultLaneWidth)
	want := make([]Result, DefaultLaneWidth)
	got := make([]Result, DefaultLaneWidth)
	var rebound *LaneRunner
	for step := 0; step < 2*len(cfgs); step++ {
		cfg, m := cfgs[step%len(cfgs)], step%3
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
			if rebound.clockStep != (binadeStep{}) || rebound.workStep != (binadeStep{}) {
				t.Fatalf("step %d: bind kept the previous batch's fast-forward steps %+v, %+v",
					step, rebound.clockStep, rebound.workStep)
			}
		}
		setMode(fresh, m)
		setMode(rebound, m)
		var flags []bool
		for l := range seeds {
			seeds[l] = uint64(100*step + l)
			if m == antithetic {
				seeds[l] = uint64(100*step + l/2)
				anti[l] = l&1 == 1
				flags = anti
			}
		}
		fresh.RunBatch(seeds, flags, want)
		rebound.RunBatch(seeds, flags, got)
		for l := range got {
			if got[l] != want[l] {
				t.Fatalf("step %d (config %d, mode %d, sampler batch %d) lane %d:\nrebound %+v\nfresh   %+v",
					step, step%len(cfgs), m, rebound.bufLen, l, got[l], want[l])
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

// TestRunAntitheticSeededLaneMatchesScalar pins the adaptive round
// primitive: the lane-batched antithetic schedule replays
// AggregateAntithetic bitwise — including the observe order — across
// round splits and worker counts.
func TestRunAntitheticSeededLaneMatchesScalar(t *testing.T) {
	b, err := Compile(antiTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	newScalar := func(int) func(uint64, bool) (Result, error) {
		r := b.NewRunner()
		return func(seed uint64, anti bool) (Result, error) { return r.RunAntithetic(seed, anti), nil }
	}
	for _, round := range []struct{ first, runs int }{
		{0, 64}, {64, 40}, {0, 300}, {0, 16}, {16, 16}, {32, 8}, {0, 2},
	} {
		var wantSeen []Result
		want, err := AggregateAntithetic(7, round.first, round.runs, 2, newScalar,
			func(r Result) { wantSeen = append(wantSeen, r) })
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 4} {
			var seen []Result
			got, err := b.RunAntitheticSeeded(7, round.first, round.runs, workers,
				func(r Result) { seen = append(seen, r) })
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %+v workers %d: aggregate differs", round, workers)
			}
			if len(seen) != len(wantSeen) {
				t.Fatalf("round %+v: observe saw %d results, want %d", round, len(seen), len(wantSeen))
			}
			for i := range seen {
				if seen[i] != wantSeen[i] {
					t.Fatalf("round %+v workers %d: observe order diverges at %d", round, workers, i)
				}
			}
		}
	}
}

// TestLaneRunnerZigguratStatistical: the ziggurat sampler changes the
// draw sequence, so equivalence is statistical — the mean waste over a
// sizable batch must agree with the inverse-CDF kernel within 3σ of
// the combined standard error — while equal seeds stay bitwise
// deterministic.
func TestLaneRunnerZigguratStatistical(t *testing.T) {
	cfg := Config{Protocol: core.DoubleNBL, Params: scenario.Base().Params.WithMTBF(900), Phi: 1, Tbase: 2e4}
	b, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const width, batches = 16, 40
	run := func(zig bool) Aggregate {
		lr, err := b.NewLaneRunner(width)
		if err != nil {
			t.Fatal(err)
		}
		lr.SetZiggurat(zig)
		seeds := make([]uint64, width)
		out := make([]Result, width)
		var agg Aggregate
		for bt := 0; bt < batches; bt++ {
			for i := range seeds {
				seeds[i] = uint64(bt*width + i)
			}
			lr.RunBatch(seeds, nil, out)
			for _, r := range out {
				agg.Add(r)
			}
		}
		return agg
	}
	inv, zig := run(false), run(true)
	zig2 := run(true)
	if zig != zig2 {
		t.Fatal("ziggurat kernel is not deterministic for equal seeds")
	}
	diff := inv.Waste.Mean() - zig.Waste.Mean()
	if diff < 0 {
		diff = -diff
	}
	seInv := inv.Waste.CI95() / 1.96
	seZig := zig.Waste.CI95() / 1.96
	if limit := 3 * (seInv + seZig); diff > limit {
		t.Fatalf("ziggurat waste mean %v vs inverse-CDF %v: |diff| %v > 3σ limit %v",
			zig.Waste.Mean(), inv.Waste.Mean(), diff, limit)
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
