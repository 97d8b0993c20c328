package sim

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// replayLoop is the oracle of the exact fast-forward: the per-period
// replay loop of the stepwise walk (phase 1 adds work only for the
// triple protocols), run for at most maxPeriods periods. ok is false
// when the cap cut it short.
func replayLoop(c *periodReplay, triple bool, t, w, target, workCap float64, maxPeriods int) (tEnd, wEnd, snap float64, ok bool) {
	limit := c.period + workEps
	snap = w
	for n := 0; target-t >= limit && w < workCap; n++ {
		if n == maxPeriods {
			return t, w, snap, false
		}
		w0 := w
		if triple {
			w += c.workAdds[0]
		}
		t += c.clockAdds[0]
		t += c.clockAdds[1]
		w += c.workAdds[1]
		snap = w0
		t += c.clockAdds[2]
		w += c.workAdds[2]
	}
	return t, w, snap, true
}

// replayOf builds the fast-forward state from raw addends. The double
// protocols store a zero phase-1 work addend, as newPeriodReplay does.
func replayOf(clock, work [3]float64, triple bool) *periodReplay {
	if !triple {
		work[0] = 0
	}
	return &periodReplay{period: clock[0] + clock[1] + clock[2], clockAdds: clock, workAdds: work}
}

// checkFastForward compares fastForward against replayLoop bit for bit.
// It reports false, without checking, when the loop runs past maxPeriods.
func checkFastForward(tb testing.TB, c *periodReplay, triple bool, t0, w0, target, workCap float64, maxPeriods int) bool {
	tb.Helper()
	wantT, wantW, wantSnap, ok := replayLoop(c, triple, t0, w0, target, workCap, maxPeriods)
	if !ok {
		return false
	}
	gotT, gotW, gotSnap := c.fastForward(t0, w0, target, workCap)
	if math.Float64bits(gotT) != math.Float64bits(wantT) ||
		math.Float64bits(gotW) != math.Float64bits(wantW) ||
		math.Float64bits(gotSnap) != math.Float64bits(wantSnap) {
		tb.Fatalf("clock adds %v, work adds %v, triple %v, t %v, work %v, target %v, workCap %v:\n"+
			"fastForward (t %v, work %v, snap %v)\nloop        (t %v, work %v, snap %v)",
			c.clockAdds, c.workAdds, triple, t0, w0, target, workCap,
			gotT, gotW, gotSnap, wantT, wantW, wantSnap)
	}
	return true
}

// tieBinades returns the binades [2^e, 2^(e+1)) in which an addend is
// an exact tie on the float grid: a positive a whose lowest set bit is
// 2^p ties where ulp(x) = 2^(p+1), that is e = p + 53.
func tieBinades(adds [3]float64) []int {
	var es []int
	for _, a := range adds {
		if a > 0 {
			b := math.Float64bits(a)
			mant := b&(1<<52-1) | 1<<52
			es = append(es, int(b>>52)-1075+bits.TrailingZeros64(mant)+53)
		}
	}
	return es
}

// binade returns e with x in [2^e, 2^(e+1)), for positive normal x.
func binade(x float64) int { return int(math.Float64bits(x)>>52) - 1023 }

// tiesWithin reports whether an addend ties in a binade between those
// of x0 and x1.
func tiesWithin(adds [3]float64, x0, x1 float64) bool {
	if x0 <= 0 {
		x0 = math.SmallestNonzeroFloat64 * (1 << 52)
	}
	for _, e := range tieBinades(adds) {
		if e >= binade(x0) && e <= binade(x1) {
			return true
		}
	}
	return false
}

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, r.Float64())
}

// TestFastForwardMatchesLoop is the exact fast-forward's bitwise
// oracle: against the per-period loop it must land on the same clock,
// work level and snapshot for random addends, dyadic addends that tie
// on the float grid, starts just below a power of two (binade
// crossings mid-replay), t = 0 and work = 0, stops on either bound,
// and the compiled addends of every protocol. Each case runs after a
// call from another start on the same compiled block, so the per-binade
// step cache carries over between calls as it does in a runner. The
// tallies at the end check that each of these cases was actually drawn.
func TestFastForwardMatchesLoop(t *testing.T) {
	cases := 300000
	if testing.Short() {
		cases = 20000
	}
	r := rand.New(rand.NewPCG(1, 2))
	p := scenario.Base().Params
	var batches []*Batch
	for _, pr := range core.Protocols {
		for _, m := range []float64{150, 900, 7200} {
			b, err := Compile(Config{Protocol: pr, Params: p.WithMTBF(m), Phi: 1, Tbase: 1e5})
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, b)
		}
	}
	const (
		random = iota
		ties
		crossing
		zero
		protocols
		kinds
	)
	var tally struct{ ties, crossings, zeros, timeStops, workStops, double, triple int }
	randomAdds := func() (clock, work [3]float64) {
		ex := r.Float64()
		for i := range clock {
			clock[i] = logUniform(r, 1e-2, 1e3)
			work[i] = float64(ex * clock[i])
		}
		if r.IntN(8) == 0 {
			clock[2] = 0 // a protocol whose phase 2 ends the period
		}
		work[2] = clock[2]
		return clock, work
	}
	for i := 0; i < cases; i++ {
		var clock, work [3]float64
		triple := r.IntN(2) == 0
		var t0, w0 float64
		switch i % kinds {
		case random:
			clock, work = randomAdds()
			t0, w0 = logUniform(r, 1, 1e7), logUniform(r, 1, 1e7)
		case ties:
			// Addends with a set bit at u/2 of a chosen binade and none
			// below, each ~2^-8 of it, so the replay spends dozens of
			// periods in the binade and ties on some of its addends.
			et, ew := 4+r.IntN(17), 4+r.IntN(17)
			dyadic := func(e int) float64 {
				a := float64(r.IntN(64)) * math.Ldexp(1, e-14)
				if r.IntN(2) == 0 {
					a += float64(2*r.IntN(1<<20)+1) * math.Ldexp(1, e-53)
				}
				return a
			}
			for j := range clock {
				clock[j], work[j] = dyadic(et), dyadic(ew)
			}
			t0 = math.Ldexp(1+r.Float64()/2, et)
			w0 = math.Ldexp(1+r.Float64()/2, ew)
		case crossing:
			clock, work = randomAdds()
			t0 = math.Ldexp(1, 1+r.IntN(24))
			w0 = math.Ldexp(1, 1+r.IntN(24))
			t0 -= r.Float64() * 5 * (clock[0] + clock[1] + clock[2])
			w0 -= r.Float64() * 5 * (work[0] + work[1] + work[2])
			t0, w0 = math.Abs(t0), math.Abs(w0)
		case zero:
			clock, work = randomAdds()
			t0, w0 = logUniform(r, 1, 1e5), logUniform(r, 1, 1e5)
			switch r.IntN(3) {
			case 0:
				t0 = 0
			case 1:
				w0 = 0
			default:
				t0, w0 = 0, 0
			}
		case protocols:
			b := batches[r.IntN(len(batches))]
			ff := newPeriodReplay(&b.c)
			clock, work, triple = ff.clockAdds, ff.workAdds, b.c.pr.IsTriple()
			t0 = logUniform(r, 1, 1e6)
			w0 = r.Float64() * t0
		}
		c := replayOf(clock, work, triple)
		pw := c.workAdds[0] + c.workAdds[1] + c.workAdds[2]
		target := t0 + r.Float64()*200*c.period
		workCap := w0 + r.Float64()*200*pw
		// Another start in other binades first, so the call under test
		// finds the step cache filled by an earlier call.
		t1, w1 := t0*(0.25+r.Float64()), w0*(0.25+r.Float64())
		for _, st := range [][4]float64{
			{t1, w1, t1 + target - t0, w1 + workCap - w0},
			{t0, w0, target, workCap},
		} {
			if !checkFastForward(t, c, triple, st[0], st[1], st[2], st[3], 1<<20) {
				t.Fatalf("case %d: reference loop did not stop", i)
			}
		}
		tEnd, wEnd, _, _ := replayLoop(c, triple, t0, w0, target, workCap, 1<<20)
		if tiesWithin(c.clockAdds, t0, tEnd) || tiesWithin(c.workAdds, w0, wEnd) {
			tally.ties++
		}
		if t0 > 0 && binade(tEnd) != binade(t0) || w0 > 0 && binade(wEnd) != binade(w0) {
			tally.crossings++
		}
		if t0 == 0 || w0 == 0 {
			tally.zeros++
		}
		if tEnd != t0 && !(target-tEnd >= c.period+workEps) {
			tally.timeStops++
		}
		if wEnd != w0 && !(wEnd < workCap) {
			tally.workStops++
		}
		if i%kinds == protocols {
			if triple {
				tally.triple++
			} else {
				tally.double++
			}
		}
	}
	t.Logf("%d cases: %+v", cases, tally)
	for name, n := range map[string]int{
		"ties": tally.ties, "crossings": tally.crossings, "zeros": tally.zeros,
		"time stops": tally.timeStops, "work stops": tally.workStops,
		"double": tally.double, "triple": tally.triple,
	} {
		if n < cases/100 {
			t.Errorf("only %d of %d cases cover %s", n, cases, name)
		}
	}
}

// FuzzExactReplay fuzzes the exact fast-forward against the per-period
// loop over arbitrary addends, start state and bounds. Inputs on which
// the loop runs more than 10⁵ periods (or forever) are skipped. The
// seed corpus in testdata/fuzz/FuzzExactReplay holds tie and binade
// crossing cases.
func FuzzExactReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, c1, seg2, seg3, wc1, wc2 float64, triple bool,
		t0, w0, target, workCap float64) {
		c := replayOf([3]float64{c1, seg2, seg3}, [3]float64{wc1, wc2, seg3}, triple)
		if !checkFastForward(t, c, triple, t0, w0, target, workCap, 1e5) {
			t.Skip("reference loop runs past 10⁵ periods")
		}
	})
}

// TestRunnerReboundMatchesFresh pins the scalar Runner's bind: a runner
// rebound from batch to batch produces bitwise the Results of a fresh
// NewRunner on each, and bind leaves the fast-forward's step cache
// empty. The second batch's addends tie on the float grid in a binade
// the runs visit, where the first batch's do not, so replay state kept
// across the rebind would show.
func TestRunnerReboundMatchesFresh(t *testing.T) {
	cfgs := tieRebindConfigs(t)
	var rebound *Runner
	for step, cfg := range append(cfgs, cfgs...) {
		b, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rebound == nil {
			rebound = b.NewRunner()
		} else {
			rebound.bind(b)
			if rebound.e.ff.clockStep != (binadeStep{}) || rebound.e.ff.workStep != (binadeStep{}) {
				t.Fatalf("step %d: bind kept the previous batch's fast-forward steps %+v, %+v",
					step, rebound.e.ff.clockStep, rebound.e.ff.workStep)
			}
		}
		fresh := b.NewRunner()
		for seed := uint64(0); seed < 24; seed++ {
			anti := seed&1 == 1
			if got, want := rebound.RunAntithetic(seed, anti), fresh.RunAntithetic(seed, anti); got != want {
				t.Fatalf("step %d seed %d (antithetic %v):\nrebound %+v\nfresh   %+v", step, seed, anti, got, want)
			}
		}
	}
}

// tieRebindConfigs returns two i.i.d. configurations: the first with
// dyadic addends that tie in no binade a run visits, the second tying
// in a visited binade (between one period and Tbase) where the first
// does not. It fails the test if the pair no longer has that shape.
func tieRebindConfigs(t *testing.T) []Config {
	t.Helper()
	p := scenario.Base().Params
	cfgs := []Config{
		{Protocol: core.DoubleNBL, Params: p.WithMTBF(1800), Phi: 1, Tbase: 2e4, Period: 512},
		{Protocol: core.DoubleNBL, Params: p.WithMTBF(900), Phi: 0.5, Tbase: 2e4},
	}
	visited := func(c compiled) map[int]bool {
		set := map[int]bool{}
		ff := newPeriodReplay(&c)
		for _, adds := range [][3]float64{ff.clockAdds, ff.workAdds} {
			for _, e := range tieBinades(adds) {
				if e >= binade(c.period) && e <= binade(c.tbase) {
					set[e] = true
				}
			}
		}
		return set
	}
	var sets []map[int]bool
	for _, cfg := range cfgs {
		b, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, visited(b.c))
	}
	if len(sets[0]) != 0 || len(sets[1]) == 0 {
		t.Fatalf("tie binades in the visited range: first batch %v (want none), second %v (want some)", sets[0], sets[1])
	}
	return cfgs
}
