package stats

import (
	"math"
	"testing"
)

// TestControlledExactLinearControl pins the adjustment on a control
// that explains y perfectly: y = 3c + 2 with E[c] = Mu known. The
// adjusted mean must equal 3·Mu + 2 exactly (up to rounding) whatever
// the sample, with near-zero residual variance, while the raw mean
// carries the full sampling noise.
func TestControlledExactLinearControl(t *testing.T) {
	v := Controlled{Mu: 10}
	cs := []float64{4, 19, 7, 12, 3, 25, 9, 11}
	for _, c := range cs {
		v.Add(3*c+2, c)
	}
	if got, want := v.Mean(), 32.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("adjusted mean = %v, want %v", got, want)
	}
	if math.Abs(v.Beta()-3) > 1e-12 {
		t.Errorf("beta = %v, want 3", v.Beta())
	}
	if v.Variance() > 1e-9 {
		t.Errorf("residual variance = %v, want ~0", v.Variance())
	}
	if v.ESS() < 1e6 {
		t.Errorf("ESS = %v, want enormous for a perfect control", v.ESS())
	}
	if math.Abs(v.RawMean()-v.Mean()) < 1 {
		t.Errorf("raw mean %v should differ from adjusted %v on this skewed sample",
			v.RawMean(), v.Mean())
	}
}

// TestControlledNoisyControl checks the variance reduction on a
// partially informative control: Var_adj must sit between 0 and the
// raw variance, and ESS above n.
func TestControlledNoisyControl(t *testing.T) {
	v := Controlled{Mu: 0}
	// y = c + small deterministic "noise"; c alternates around 0.
	for i := 0; i < 64; i++ {
		c := float64(i%9) - 4
		noise := 0.1 * float64((i*7)%5-2)
		v.Add(c+noise, c)
	}
	raw := v.m2y / float64(v.n-1)
	if adj := v.Variance(); adj <= 0 || adj >= raw {
		t.Errorf("adjusted variance %v not inside (0, raw %v)", adj, raw)
	}
	if v.ESS() <= float64(v.N()) {
		t.Errorf("ESS %v should exceed n %d for a correlated control", v.ESS(), v.N())
	}
	if v.CI95() <= 0 {
		t.Errorf("CI95 = %v, want > 0", v.CI95())
	}
}

// TestControlledConstantControlFallsBack pins the degenerate path of a
// quiet adaptive point (every pair fault-free): a control that never
// varies contributes no information, so beta is 0 and the estimator
// degrades to the raw mean with the raw variance.
func TestControlledConstantControlFallsBack(t *testing.T) {
	v := Controlled{Mu: 5}
	for _, y := range []float64{1, 2, 3, 4} {
		v.Add(y, 5)
	}
	if v.Beta() != 0 {
		t.Errorf("beta = %v, want 0 for a constant control", v.Beta())
	}
	if got, want := v.Mean(), v.RawMean(); got != want {
		t.Errorf("adjusted mean %v != raw mean %v", got, want)
	}
	var s Sample
	for _, y := range []float64{1, 2, 3, 4} {
		s.Add(y)
	}
	if math.Abs(v.Variance()-s.Variance()) > 1e-15 {
		t.Errorf("variance %v, want raw %v", v.Variance(), s.Variance())
	}
	if v.ESS() != float64(v.N()) {
		t.Errorf("ESS = %v, want n", v.ESS())
	}
}

// TestControlledEmptyAndTiny covers the n = 0 / n = 1 / n = 2 guards:
// every statistic must stay finite and safe (the adaptive stopper
// evaluates them after a first round that may have completed nothing).
func TestControlledEmptyAndTiny(t *testing.T) {
	var v Controlled
	if v.Mean() != 0 || v.CI95() != 0 || v.StdErr() != 0 || v.ESS() != 0 {
		t.Errorf("empty accumulator not all-zero: mean %v ci %v ess %v", v.Mean(), v.CI95(), v.ESS())
	}
	v.Add(3, 1)
	if v.Mean() != 3 || v.Variance() != 0 {
		t.Errorf("single pair: mean %v variance %v", v.Mean(), v.Variance())
	}
	v.Add(5, 2)
	// n = 2: beta would be fit on 0 degrees of freedom; must fall back
	// to the raw variance, not divide by n-2 = 0.
	if got := v.Variance(); math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
		t.Errorf("n=2 variance = %v, want finite positive raw variance", got)
	}
}

// TestControlledMergeMatchesSequential is the merge-equivalence
// property the chunked aggregation depends on: folding pairs chunk by
// chunk equals adding them one by one, for any chunk split.
func TestControlledMergeMatchesSequential(t *testing.T) {
	ys := []float64{0.3, 0.8, 0.1, 0.9, 0.55, 0.42, 0.77, 0.05, 0.61, 0.34}
	cs := []float64{2, 7, 1, 9, 5, 4, 8, 0, 6, 3}
	for split := 0; split <= len(ys); split++ {
		var seq, a, b Controlled
		seq.Mu, a.Mu, b.Mu = 4.5, 4.5, 4.5
		for i := range ys {
			seq.Add(ys[i], cs[i])
			if i < split {
				a.Add(ys[i], cs[i])
			} else {
				b.Add(ys[i], cs[i])
			}
		}
		a.Merge(b)
		if a.N() != seq.N() ||
			math.Abs(a.Mean()-seq.Mean()) > 1e-12 ||
			math.Abs(a.Variance()-seq.Variance()) > 1e-12 ||
			math.Abs(a.Beta()-seq.Beta()) > 1e-12 {
			t.Errorf("split %d: merged (%v, %v, %v) != sequential (%v, %v, %v)",
				split, a.Mean(), a.Variance(), a.Beta(), seq.Mean(), seq.Variance(), seq.Beta())
		}
	}
}

// TestControlledMergeMuMismatchPanics pins the misuse guard.
func TestControlledMergeMuMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging different control expectations should panic")
		}
	}()
	a := Controlled{Mu: 1}
	b := Controlled{Mu: 2}
	a.Add(1, 1)
	b.Add(2, 2)
	a.Merge(b)
}
