// sync.Pool drops a share of the lane runners put into it under -race
// on purpose, so pooled paths allocate there.

//go:build !race

package engine

import "testing"

// TestRunAdaptiveAllocs pins the allocations of one adaptive
// evaluation per backend on the 96-rank, Tbase 10⁴ points the
// adaptive_sweep benchmark row ran. It runs on one worker:
// AllocsPerRun holds GOMAXPROCS at 1, and every extra worker builds its
// own runners and chunk buffers (at two workers the detailed point
// takes 874, not 645), so a count taken at the host's CPU count
// follows the host rather than the code.
func TestRunAdaptiveAllocs(t *testing.T) {
	// allocSlack absorbs what Go versions' inliner and escape analysis
	// move, as in cmd/bench's gate.
	const allocSlack = 8
	spec := Precision{TargetRelErr: 0.05, MinRuns: 8, MaxRuns: 4096}
	for _, tc := range []struct {
		eng    Engine
		mtbf   float64
		global *Global
		want   float64
	}{
		{Fast{}, 600, nil, 6},
		{Fast{}, 3600, nil, 6},
		{Fast{}, 28800, nil, 6},
		// The detailed runner allocates about once per run.
		{Detailed{}, 600, nil, 645},
		{Multilevel{}, 900, &Global{G: 50, Rg: 50}, 35},
	} {
		req := baseRequest()
		req.Params = req.Params.WithMTBF(tc.mtbf)
		req.Phi = 0.25 * req.Params.R
		req.Tbase = 1e4
		req.Global = tc.global
		resolved, err := tc.eng.Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tc.eng.Compile(resolved)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := RunAdaptive(b, 42, spec, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.want+allocSlack {
			t.Errorf("%s at M=%v: RunAdaptive allocates %.0f/op, want ≤ %v+%d",
				tc.eng.Name(), tc.mtbf, allocs, tc.want, allocSlack)
		}
	}
}
