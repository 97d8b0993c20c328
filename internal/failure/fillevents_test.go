package failure

import (
	"testing"

	"repro/internal/rng"
)

// TestFillEventsZigguratDeterministic: the ziggurat refill is a pure
// function of the seed — equal seeds replay the exact event sequence,
// and times are strictly increasing (a sanity bound on the clock
// accumulation).
func TestFillEventsZigguratDeterministic(t *testing.T) {
	run := func() ([]float64, []int32) {
		var s rng.Stream
		m := NewMerged(64, 450, &s)
		m.Reseed(4242)
		times := make([]float64, 96)
		nodes := make([]int32, 96)
		m.FillEventsZiggurat(times[:48], nodes[:48])
		m.FillEventsZiggurat(times[48:], nodes[48:])
		return times, nodes
	}
	t1, n1 := run()
	t2, n2 := run()
	prev := 0.0
	for k := range t1 {
		if t1[k] != t2[k] || n1[k] != n2[k] {
			t.Fatalf("event %d differs across identical seeds: (%v, %d) != (%v, %d)",
				k, t1[k], n1[k], t2[k], n2[k])
		}
		if t1[k] < prev {
			t.Fatalf("event %d: time %v before predecessor %v", k, t1[k], prev)
		}
		prev = t1[k]
		if n1[k] < 0 || n1[k] >= 64 {
			t.Fatalf("event %d: victim %d out of range", k, n1[k])
		}
	}
}
