package api

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// referenceExpand is the plain nested-loop expansion of the whole
// grid — backends × protocols × phiFracs × mtbfs, with the law
// re-resolved at each point — kept as the oracle for sweepPlan's
// index arithmetic. req must already be normalized (by plan); the axes are
// re-resolved here from the request alone, so the oracle shares no
// code with the plan beyond the key and label helpers.
func referenceExpand(t *testing.T, req SweepRequest) []sweepPoint {
	t.Helper()
	base, err := req.Scenario.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	corr, err := req.Scenario.ResolveCorrelation(base)
	if err != nil {
		t.Fatal(err)
	}
	baseStream := rng.New(req.Seed)
	var points []sweepPoint
	for _, name := range req.Backends {
		eng, err := engine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, prName := range req.Protocols {
			pr, err := core.ParseProtocol(prName)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range req.PhiFracs {
				for _, m := range req.MTBFs {
					p := base.WithMTBF(m)
					phi := core.EffectivePhi(pr, p, frac*p.R)
					law, err := req.Scenario.ResolveLaw(p)
					if err != nil {
						t.Fatal(err)
					}
					preq := engine.Request{Protocol: pr, Params: p, Phi: phi, Period: req.Period, Tbase: req.Tbase, Law: law}
					switch eng.Name() {
					case "fast":
						preq.Correlation = corr
					case "detailed":
						preq.Spares, preq.ImageBytes = engine.NormalizeSubstrate(p, req.Scenario.Spares, req.Scenario.ImageBytes)
						preq.Correlation = corr
					case "multilevel":
						g := req.Scenario.Global
						preq.Global = &engine.Global{G: g.G, Rg: g.Rg, K: g.K}
					}
					key := pointKey(eng.Name(), preq, req.Runs, req.Seed, req.precision())
					points = append(points, sweepPoint{
						eng:     eng,
						req:     preq,
						seed:    baseStream.Split(fnv64(key)).Uint64(),
						phiFrac: phi / p.R,
						backend: backendLabel(eng),
						law:     lawLabel(law),
						key:     key,
					})
				}
			}
		}
	}
	return points
}

// parityGrids cover every branch of point construction between them:
// a fast + detailed axis under correlated failures with the detailed
// substrate defaults normalized and spelled out, a Weibull law and
// adaptive precision keys; and a fast + multilevel + detailed axis
// with a global level and a log-normal law. Both include every
// protocol, so DoubleBlocking's φ collapse is in both.
func parityGrids() map[string]SweepRequest {
	n := 96
	correlated := SweepRequest{
		Backends:     []string{"fast", "detailed"},
		PhiFracs:     []float64{0, 1},
		MTBFs:        []float64{900, 3600},
		Tbase:        10000,
		Runs:         4,
		TargetRelErr: 0.05,
		MaxRuns:      64,
		Seed:         7,
	}
	correlated.Scenario.N = &n
	correlated.Scenario.Law, correlated.Scenario.Shape = "weibull", 0.7
	correlated.Scenario.Domains = &scenario.DomainsSpec{Size: 4, BurstRate: 1e-5}
	correlated.Scenario.Groups = []float64{2, 1}
	correlated.Scenario.Spares = 96/10 + 1

	multilevel := SweepRequest{
		Backends: []string{"fast", "multilevel", "detailed"},
		PhiFracs: []float64{0.25, 1},
		MTBFs:    []float64{600, 1200},
		Tbase:    5000,
		Runs:     2,
		Seed:     11,
	}
	multilevel.Scenario.N = &n
	multilevel.Scenario.Law, multilevel.Scenario.Shape = "lognormal", 0.5
	multilevel.Scenario.Global = &scenario.GlobalSpec{G: 50, Rg: 50, K: 2}
	return map[string]SweepRequest{"correlated": correlated, "multilevel": multilevel}
}

// TestSweepPlanRangeParity: for every (offset, limit) — limits that
// overshoot the grid and offset == total included — the points a range
// plan materialises equal the same slice of the nested-loop expansion
// of the whole grid: keys, seeds, engine requests and labels.
func TestSweepPlanRangeParity(t *testing.T) {
	svc := NewService(Options{})
	for name, req := range parityGrids() {
		t.Run(name, func(t *testing.T) {
			pl, err := svc.plan(&req)
			if err != nil {
				t.Fatal(err)
			}
			full := referenceExpand(t, req)
			if len(full) != pl.total {
				t.Fatalf("reference has %d points, plan %d", len(full), pl.total)
			}
			blocking := 0
			for _, pt := range full {
				if pt.req.Protocol == core.DoubleBlocking && pt.phiFrac == 1 {
					blocking++
				}
			}
			if blocking == 0 {
				t.Fatal("grid has no collapsed DoubleBlocking point")
			}
			for offset := 0; offset <= pl.total; offset++ {
				for limit := -1; limit <= pl.total-offset+2; limit++ {
					got, err := pl.span(offset, limit)
					if err != nil {
						t.Fatalf("span(%d, %d): %v", offset, limit, err)
					}
					end := pl.total
					if limit >= 0 && offset+limit < end {
						end = offset + limit
					}
					if want := full[offset:end]; !reflect.DeepEqual(got, want) {
						t.Fatalf("span(%d, %d) differs from the full expansion's slice:\ngot  %+v\nwant %+v",
							offset, limit, got, want)
					}
				}
			}
			if _, err := pl.span(pl.total+1, 1); err == nil {
				t.Error("offset past the grid must fail")
			}
			keys, err := svc.PointKeys(req)
			if err != nil {
				t.Fatal(err)
			}
			for i, pt := range full {
				if keys[i] != pt.key {
					t.Fatalf("PointKeys[%d] = %q, want %q", i, keys[i], pt.key)
				}
			}
		})
	}
}

// TestSweepRangeRejectsGridErrors: a range request is validated
// against the whole grid, not the range. A bad value anywhere on the
// MTBF axis — or a bad law — rejects a range that does not reach it
// with exactly the full grid's error. (Laws are resolved at every MTBF
// up front; no law today fails at one MTBF and not another, so the
// MTBF axis itself carries the out-of-range fault.)
func TestSweepRangeRejectsGridErrors(t *testing.T) {
	svc := NewService(Options{})
	badMTBF := sweepRequest()
	badMTBF.MTBFs = []float64{3600, 7200, -1}
	badLaw := sweepRequest()
	badLaw.Scenario.Law = "weibull" // no shape
	for name, req := range map[string]SweepRequest{"mtbf": badMTBF, "law": badLaw} {
		_, _, fullErr := svc.Sweep(context.Background(), req)
		if fullErr == nil {
			t.Fatalf("%s: full grid accepted", name)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rangeErr := svc.SweepLines(context.Background(), body, 0, 1, jobs.Interactive, nil, func([]byte) error {
			t.Fatalf("%s: range request evaluated a point", name)
			return nil
		})
		if rangeErr == nil || rangeErr.Error() != fullErr.Error() {
			t.Errorf("%s: range error = %v, want the full grid's %v", name, rangeErr, fullErr)
		}
	}
}

// TestNormalizeSweepOneExpansion: the coordinator's single call agrees
// with the two it replaces — canonical bytes and grid size with
// NormalizeJobRequest, keys with PointKeys.
func TestNormalizeSweepOneExpansion(t *testing.T) {
	svc := NewService(Options{})
	for name, req := range parityGrids() {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := svc.NormalizeSweep(body, 0, -1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canonical, total, err := svc.NormalizeJobRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if string(sweep.Canonical) != string(canonical) || len(sweep.Keys) != total || sweep.Total != total {
			t.Errorf("%s: NormalizeSweep = (%s, %d keys of %d), NormalizeJobRequest = (%s, %d)",
				name, sweep.Canonical, len(sweep.Keys), sweep.Total, canonical, total)
		}
		keys, err := svc.PointKeys(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sweep.Keys, keys) {
			t.Errorf("%s: NormalizeSweep keys differ from PointKeys", name)
		}
		// A range carries the same keys at the same positions.
		lo, n := total/3, total/2
		ranged, err := svc.NormalizeSweep(body, lo, n)
		if err != nil {
			t.Fatal(err)
		}
		if ranged.Offset != lo || ranged.Total != total || !reflect.DeepEqual(ranged.Keys, keys[lo:lo+n]) {
			t.Errorf("%s: range [%d, %d) = offset %d, %d keys of %d; want the full grid's keys there",
				name, lo, lo+n, ranged.Offset, len(ranged.Keys), ranged.Total)
		}
	}
}

// TestSweepRangeCostIndependentOfGrid is the O(range) guard: a warm
// one-point range of a 3000-point grid allocates what the same range
// of a 300-point grid does, give or take a constant (5 protocols × 5
// φ/R × 12 or 120 MTBFs). A range path that materialised the whole
// grid again would allocate thousands more.
func TestSweepRangeCostIndependentOfGrid(t *testing.T) {
	svc := NewService(Options{})
	allocs := func(mtbfs int) float64 {
		req := SweepRequest{Tbase: 2000, Runs: 1, Seed: 3} // every protocol × the default φ/R axis
		for i := 0; i < mtbfs; i++ {
			req.MTBFs = append(req.MTBFs, 1800+float64(i))
		}
		emit := func(SweepItem) error { return nil }
		run := func() {
			// Plan every time, uncached: the range's cost includes planning.
			r := req
			pl, err := svc.plan(&r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.runPlan(context.Background(), pl, 0, 1, jobs.Interactive, nil, emit, nil); err != nil {
				t.Fatal(err)
			}
		}
		run() // evaluate the point once; the measured runs hit the cache
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(12), allocs(120)
	t.Logf("1-point range: %.0f allocs on the small grid, %.0f on the large one", small, large)
	if large > small+8 {
		t.Errorf("1-point range allocates %.0f times on the large grid vs %.0f on the small one: range cost grows with the grid",
			large, small)
	}
}
