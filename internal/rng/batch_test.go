package rng

import (
	"math"
	"sort"
	"testing"
)

// TestExpZigguratDeterministic: equal seeds replay the exact variate
// sequence — the ziggurat's rejection retries are a pure function of
// the stream.
func TestExpZigguratDeterministic(t *testing.T) {
	a, b := New(1234), New(1234)
	for i := 0; i < 10000; i++ {
		if x, y := a.ExpZiggurat(0.5), b.ExpZiggurat(0.5); x != y {
			t.Fatalf("draw %d: %v != %v", i, x, y)
		}
	}
}

// TestExpZigguratMoments: the ziggurat samples the same Exp(rate)
// distribution as the inverse CDF — mean and second moment must land
// within 5σ of the analytic values (1/rate and 2/rate²).
func TestExpZigguratMoments(t *testing.T) {
	const (
		n    = 2_000_000
		rate = 1.0 / 450
	)
	s := New(42)
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.ExpZiggurat(rate)
		if x < 0 {
			t.Fatalf("draw %d: negative variate %v", i, x)
		}
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	m2 := sum2 / n
	// Var(X) = 1/rate², se(mean) = 1/(rate·√n).
	seMean := 1 / (rate * math.Sqrt(n))
	if d := math.Abs(mean - 1/rate); d > 5*seMean {
		t.Fatalf("mean %v vs %v: |diff| %v > 5σ (%v)", mean, 1/rate, d, 5*seMean)
	}
	// Var(X²) = E[X⁴]−E[X²]² = 24/rate⁴ − 4/rate⁴ = 20/rate⁴.
	seM2 := math.Sqrt(20) / (rate * rate * math.Sqrt(n))
	if d := math.Abs(m2 - 2/(rate*rate)); d > 5*seM2 {
		t.Fatalf("second moment %v vs %v: |diff| %v > 5σ (%v)", m2, 2/(rate*rate), d, 5*seM2)
	}
}

// TestExpZigguratAntitheticCorrelation: reflected draws are exactly
// Exp(rate) — mean and variance within 5σ of 1/rate and 1/rate², and
// a Kolmogorov–Smirnov distance below the 0.1 % critical value — and a
// reflected stream mirrors the within-layer position, so paired draws
// must be strongly negatively correlated on the accept path: the
// property that keeps antithetic pairing worthwhile under the log-free
// sampler. The inverse CDF's exact quantile reflection is not
// preserved (rejection retries may consume differently and
// desynchronize the streams), so each pair is drawn from freshly
// aligned streams and the bound is a correlation threshold, not
// bitwise equality.
func TestExpZigguratAntitheticCorrelation(t *testing.T) {
	const (
		n    = 200_000
		rate = 1.0 / 450
	)
	var plain, refl Stream
	refl.SetReflected(true)
	ys := make([]float64, n)
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		plain.Reseed(uint64(i))
		refl.Reseed(uint64(i))
		x := plain.ExpZiggurat(rate)
		y := refl.ExpZiggurat(rate)
		ys[i] = y
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	if corr := cov / math.Sqrt(vx*vy); corr > -0.3 {
		t.Fatalf("antithetic ziggurat correlation %v, want strongly negative (≤ -0.3)", corr)
	}
	// se(mean) = σ/√n with σ = 1/rate; se(variance) = √((μ₄−σ⁴)/n) with
	// μ₄ = 9/rate⁴ for the exponential.
	mean := sy / n
	if d, se := math.Abs(mean-1/rate), 1/(rate*math.Sqrt(n)); d > 5*se {
		t.Errorf("reflected mean %v vs %v: |diff| %v > 5σ (%v)", mean, 1/rate, d, 5*se)
	}
	if d, se := math.Abs(vy-1/(rate*rate)), math.Sqrt(8.0/n)/(rate*rate); d > 5*se {
		t.Errorf("reflected variance %v vs %v: |diff| %v > 5σ (%v)", vy, 1/(rate*rate), d, 5*se)
	}
	sort.Float64s(ys)
	var ks float64
	for k, y := range ys {
		f := 1 - math.Exp(-rate*y)
		ks = math.Max(ks, math.Max(f-float64(k)/n, float64(k+1)/n-f))
	}
	if lim := 1.95 / math.Sqrt(n); ks > lim {
		t.Errorf("reflected draws: KS distance %v > %v (α = 0.001)", ks, lim)
	}
}

// zigOnWords is the plain ziggurat of ExpZiggurat(1) written against a
// source of raw words, with counters for the slow paths it took.
func zigOnWords(next func() uint64, wedge, tail *int) float64 {
	unit := func(w uint64) float64 { return float64(w>>11) / (1 << 53) }
	for {
		w := next()
		i := int(w & 0xFF)
		x := unit(w) * zigX[i]
		if x < zigX[i+1] {
			return x
		}
		if i == 0 {
			*tail++
			return zigR - math.Log(1-unit(next()))
		}
		*wedge++
		if zigF[i]+(zigF[i+1]-zigF[i])*unit(next()) < math.Exp(-x) {
			return x
		}
	}
}

// TestExpZigguratReflectionIsComplement pins why reflection preserves
// the distribution exactly: a reflected stream's draw is bit for bit
// the plain ziggurat run on the complemented raw words of the same
// state, through the core, the wedge and the tail, draw after draw.
// The plain stream is checked against the same reference on the raw
// words, so the reference is ExpZiggurat's own algorithm.
func TestExpZigguratReflectionIsComplement(t *testing.T) {
	for _, reflected := range []bool{false, true} {
		s := New(77)
		s.SetReflected(reflected)
		raw := *New(77)
		next := raw.Uint64
		if reflected {
			next = func() uint64 { return ^raw.Uint64() }
		}
		var wedge, tail int
		for i := 0; i < 1_000_000; i++ {
			if got, want := s.ExpZiggurat(1), zigOnWords(next, &wedge, &tail); got != want {
				t.Fatalf("reflected %v draw %d: %v != reference %v", reflected, i, got, want)
			}
		}
		if wedge == 0 || tail == 0 {
			t.Fatalf("reflected %v: the draws never reached the wedge (%d) or the tail (%d)", reflected, wedge, tail)
		}
	}
}
