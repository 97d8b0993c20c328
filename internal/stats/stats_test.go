package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleMoments(t *testing.T) {
	var s Sample
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		s.Add(x)
	}
	if s.N() != len(xs) {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// Unbiased variance of this classic dataset is 32/7.
	if want := 32.0 / 7; math.Abs(s.Variance()-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", s.Variance(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.StdDev() != math.Sqrt(s.Variance()) {
		t.Fatal("stddev mismatch")
	}
	if s.CI95() <= 0 {
		t.Fatal("CI95 should be positive")
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Variance() != 0 || s.StdErr() != 0 || s.Mean() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	s.Add(42)
	if s.Mean() != 42 || s.Variance() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Fatal("single-observation sample wrong")
	}
}

func TestSampleMatchesNaiveProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) < 2 {
			return true
		}
		var s Sample
		var sum float64
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var sq float64
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		naiveVar := sq / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return math.Abs(s.Mean()-mean) < 1e-9*math.Max(1, math.Abs(mean)) &&
			math.Abs(s.Variance()-naiveVar) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	for i := 0; i < 1000; i++ {
		p.Add(i%10 == 0)
	}
	if math.Abs(p.Rate()-0.1) > 1e-12 {
		t.Fatalf("rate = %v", p.Rate())
	}
	lo, hi := p.Wilson95()
	if !(lo < 0.1 && 0.1 < hi) {
		t.Fatalf("Wilson interval [%v, %v] should cover 0.1", lo, hi)
	}
	if lo < 0 || hi > 1 {
		t.Fatalf("Wilson interval [%v, %v] outside [0,1]", lo, hi)
	}
	var empty Proportion
	lo, hi = empty.Wilson95()
	if lo != 0 || hi != 1 {
		t.Fatalf("empty Wilson interval = [%v, %v]", lo, hi)
	}
	if empty.Rate() != 0 {
		t.Fatal("empty rate should be 0")
	}
}

func TestWilsonNearZero(t *testing.T) {
	// Zero hits out of many trials: the interval must stay tight near
	// zero and must not include negative numbers.
	p := Proportion{Hits: 0, Trials: 100000}
	lo, hi := p.Wilson95()
	if lo != 0 {
		t.Fatalf("lo = %v, want 0", lo)
	}
	if hi > 1e-3 {
		t.Fatalf("hi = %v, want < 1e-3", hi)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
	wantCounts := []int{2, 1, 1, 0, 1}
	for i, want := range wantCounts {
		if h.Counts[i] != want {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], want)
		}
	}
	if got := h.BinCenter(0); got != 1 {
		t.Fatalf("bin 0 center = %v", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram should panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestSurface(t *testing.T) {
	s := NewSurface("test", "x", "y", "z", []float64{0, 1, 2}, []float64{0, 10})
	s.Fill(func(x, y float64) float64 { return x + y })
	if s.At(2, 1) != 12 {
		t.Fatalf("At(2,1) = %v", s.At(2, 1))
	}
	lo, hi := s.MinMax()
	if lo != 0 || hi != 12 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
	var buf bytes.Buffer
	if err := s.WriteDat(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 10 12") {
		t.Fatalf("dat output missing row: %s", out)
	}
	// Blocks must be separated by blank lines for gnuplot splot.
	if !strings.Contains(out, "\n\n") {
		t.Fatal("dat output missing block separator")
	}
	ascii := s.RenderASCII()
	if !strings.Contains(ascii, "test") || len(strings.Split(ascii, "\n")) < 4 {
		t.Fatalf("ascii render too small:\n%s", ascii)
	}
}

func TestSurfaceMinMaxSkipsNonFinite(t *testing.T) {
	s := NewSurface("t", "x", "y", "z", []float64{0, 1}, []float64{0})
	s.Z[0][0] = math.NaN()
	s.Z[1][0] = 3
	lo, hi := s.MinMax()
	if lo != 3 || hi != 3 {
		t.Fatalf("MinMax with NaN = %v, %v", lo, hi)
	}
}

func TestSeriesAndWriteDat(t *testing.T) {
	xs := []float64{0, 0.5, 1}
	a := NewSeries("a", "phi", "ratio", xs, func(x float64) float64 { return 2 * x })
	b := NewSeries("b", "phi", "ratio", xs, func(x float64) float64 { return x * x })
	var buf bytes.Buffer
	if err := WriteDat(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# phi a b\n") {
		t.Fatalf("header: %s", out)
	}
	if !strings.Contains(out, "0.5 1 0.25") {
		t.Fatalf("row missing: %s", out)
	}
	if err := WriteDat(&buf); err != nil {
		t.Fatal("empty WriteDat should be a no-op")
	}
}

// TestSampleMergeMatchesSequential checks the streaming-aggregation
// identities: merging into an empty sample is an exact copy, merging
// an empty sample is a no-op, and a split-merge reproduces the
// sequential moments to floating-point accuracy.
func TestSampleMergeMatchesSequential(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9, -3, 12, 0.5}
	for split := 0; split <= len(xs); split++ {
		var a, b, seq Sample
		for _, x := range xs[:split] {
			a.Add(x)
			seq.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
			seq.Add(x)
		}
		a.Merge(b)
		if a.N() != seq.N() || a.Min() != seq.Min() || a.Max() != seq.Max() {
			t.Fatalf("split %d: counts/extrema differ: %+v vs %+v", split, a, seq)
		}
		if math.Abs(a.Mean()-seq.Mean()) > 1e-12 {
			t.Fatalf("split %d: mean %v != %v", split, a.Mean(), seq.Mean())
		}
		if math.Abs(a.Variance()-seq.Variance()) > 1e-9 {
			t.Fatalf("split %d: variance %v != %v", split, a.Variance(), seq.Variance())
		}
		// The boundary splits must be bitwise exact, not just close:
		// that is what makes single-chunk streaming aggregation
		// reproduce the legacy sequential aggregation byte for byte.
		if split == 0 || split == len(xs) {
			if a != seq {
				t.Fatalf("split %d: empty-side merge not exact: %+v vs %+v", split, a, seq)
			}
		}
	}
}

// TestSampleMergeProperty fuzzes Merge against sequential Add over
// random splits.
func TestSampleMergeProperty(t *testing.T) {
	f := func(raw []float64, splitRaw uint8) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		split := int(splitRaw) % (len(xs) + 1)
		var a, b, seq Sample
		for _, x := range xs[:split] {
			a.Add(x)
			seq.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
			seq.Add(x)
		}
		a.Merge(b)
		if a.N() != seq.N() || a.Min() != seq.Min() || a.Max() != seq.Max() {
			return false
		}
		scale := math.Max(1, math.Abs(seq.Mean()))
		if math.Abs(a.Mean()-seq.Mean()) > 1e-9*scale {
			return false
		}
		vscale := math.Max(1, seq.Variance())
		return math.Abs(a.Variance()-seq.Variance()) <= 1e-6*vscale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProportionMerge(t *testing.T) {
	var a, b Proportion
	for i := 0; i < 10; i++ {
		a.Add(i%3 == 0)
	}
	for i := 0; i < 7; i++ {
		b.Add(i%2 == 0)
	}
	a.Merge(b)
	if a.Trials != 17 || a.Hits != 4+4 {
		t.Fatalf("merged proportion = %d/%d, want 8/17", a.Hits, a.Trials)
	}
}

// TestHistogramMergeMatchesSequential is the merge-equivalence
// property for histograms: folding per-chunk partial histograms, for
// any chunk split, equals adding every observation to one histogram —
// the property that unblocks chunked histogram aggregation.
func TestHistogramMergeMatchesSequential(t *testing.T) {
	xs := []float64{-1, 0, 0.5, 2.3, 4.9, 5, 7.7, 9.99, 10, 12, 3.3, 6.6}
	for split := 0; split <= len(xs); split++ {
		seq := NewHistogram(0, 10, 5)
		a := NewHistogram(0, 10, 5)
		b := NewHistogram(0, 10, 5)
		for i, x := range xs {
			seq.Add(x)
			if i < split {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		if a.Under != seq.Under || a.Over != seq.Over || a.Total() != seq.Total() {
			t.Fatalf("split %d: merged outliers/total differ: %+v vs %+v", split, a, seq)
		}
		for i := range a.Counts {
			if a.Counts[i] != seq.Counts[i] {
				t.Fatalf("split %d bin %d: %d != %d", split, i, a.Counts[i], seq.Counts[i])
			}
		}
	}
}

// TestHistogramMergeShapePanics pins the shape guard.
func TestHistogramMergeShapePanics(t *testing.T) {
	cases := []*Histogram{
		NewHistogram(0, 10, 4), // bin count differs
		NewHistogram(0, 20, 5), // upper bound differs
		NewHistogram(1, 10, 5), // lower bound differs
	}
	for i, o := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: merging mismatched shapes should panic", i)
				}
			}()
			NewHistogram(0, 10, 5).Merge(o)
		}()
	}
}

// TestQuantileEdgeCases covers the inputs the adaptive rounds can
// produce: an empty sample after a fatal-heavy first round, a single
// observation, and an all-identical sample (a zero-variance round,
// which the stopper keeps running).
func TestQuantileEdgeCases(t *testing.T) {
	if q := Quantile(nil, 0.5); !math.IsNaN(q) {
		t.Errorf("Quantile(nil) = %v, want NaN", q)
	}
	if q := Quantile([]float64{}, 0.5); !math.IsNaN(q) {
		t.Errorf("Quantile(empty) = %v, want NaN", q)
	}
	for _, q := range []float64{-1, 0, 0.25, 0.5, 1, 2} {
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Errorf("single-element quantile(%v) = %v, want 7", q, got)
		}
		if got := Quantile([]float64{3, 3, 3, 3}, q); got != 3 {
			t.Errorf("all-identical quantile(%v) = %v, want 3", q, got)
		}
	}
	// Out-of-range q clamps to the extremes.
	xs := []float64{5, 1, 9}
	if got := Quantile(xs, -0.5); got != 1 {
		t.Errorf("quantile(-0.5) = %v, want min", got)
	}
	if got := Quantile(xs, 1.5); got != 9 {
		t.Errorf("quantile(1.5) = %v, want max", got)
	}
	// The input must not be reordered.
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 9 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

// TestWilson95EdgeCases covers the degenerate proportions adaptive
// rounds see: no trials at all (total ignorance), all hits, and no
// hits — the bounds must stay inside [0, 1] and bracket the rate.
func TestWilson95EdgeCases(t *testing.T) {
	var empty Proportion
	lo, hi := empty.Wilson95()
	if lo != 0 || hi != 1 {
		t.Errorf("empty Wilson interval [%v, %v], want [0, 1]", lo, hi)
	}
	all := Proportion{Hits: 8, Trials: 8}
	lo, hi = all.Wilson95()
	if hi != 1 || lo <= 0.5 || lo >= 1 {
		t.Errorf("all-hits Wilson interval [%v, %v]", lo, hi)
	}
	none := Proportion{Hits: 0, Trials: 8}
	lo, hi = none.Wilson95()
	if lo > 1e-12 || hi <= 0 || hi >= 0.5 {
		t.Errorf("no-hits Wilson interval [%v, %v]", lo, hi)
	}
	one := Proportion{Hits: 1, Trials: 1}
	lo, hi = one.Wilson95()
	if lo < 0 || hi > 1 || lo > one.Rate() || hi < one.Rate() {
		t.Errorf("single-trial Wilson interval [%v, %v] does not bracket 1", lo, hi)
	}
}

// TestSampleMergeIdenticalObservations pins the zero-variance merge:
// chunks of identical observations merge to zero variance exactly, so
// the adaptive stopper's CI hits 0 and stops — no 1e-30 residue.
func TestSampleMergeIdenticalObservations(t *testing.T) {
	var a, b Sample
	for i := 0; i < 5; i++ {
		a.Add(0.25)
	}
	for i := 0; i < 11; i++ {
		b.Add(0.25)
	}
	a.Merge(b)
	if a.Variance() != 0 || a.CI95() != 0 {
		t.Errorf("identical-sample merge: variance %v ci %v, want exact 0", a.Variance(), a.CI95())
	}
	if a.Mean() != 0.25 || a.N() != 16 {
		t.Errorf("identical-sample merge: mean %v n %d", a.Mean(), a.N())
	}
}
