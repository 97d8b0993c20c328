package api

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/jobs"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// testTrace records a short merged-exponential history suitable for
// replay on a 96-node detailed platform.
func testTrace(nodes int, mtbf, horizon float64) *failure.Trace {
	gen := failure.NewMerged(nodes, mtbf, rng.New(99))
	return failure.Collect(gen, nodes, mtbf, "exponential", horizon)
}

// corrSweepRequest is a small fast+detailed grid with room for the
// correlation axes: 96 nodes divides both domain sizes and buddy
// groups.
func corrSweepRequest() SweepRequest {
	n := 96
	req := SweepRequest{
		Backends:  []string{"fast", "detailed"},
		Protocols: []string{"DoubleNBL"},
		PhiFracs:  []float64{0.5},
		MTBFs:     []float64{3600},
		Tbase:     10000,
		Runs:      2,
		Seed:      7,
	}
	req.Scenario.N = &n
	return req
}

// TestSweepKeyInvarianceWithoutCorrelation pins the wire/cache
// compatibility contract of the new axes: a request that leaves
// domains, groups and trace unset produces exactly the historical
// point keys — no new key tokens anywhere — while setting any of the
// three changes every affected key. Historical keys are what the
// derived per-point seeds, the golden bodies and the fabric's point
// partitioning hang off.
func TestSweepKeyInvarianceWithoutCorrelation(t *testing.T) {
	svc := NewService(Options{})
	base := corrSweepRequest()
	keys, err := svc.PointKeys(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		for _, token := range []string{"|dom=", "|groups=", "|trace="} {
			if strings.Contains(key, token) {
				t.Errorf("default key %q contains new token %q", key, token)
			}
		}
	}

	domains := corrSweepRequest()
	domains.Scenario.Domains = &scenario.DomainsSpec{Size: 4, BurstRate: 1e-5}
	domKeys, err := svc.PointKeys(domains)
	if err != nil {
		t.Fatal(err)
	}
	groups := corrSweepRequest()
	groups.Scenario.Groups = []float64{2, 1}
	grpKeys, err := svc.PointKeys(groups)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if domKeys[i] == keys[i] {
			t.Errorf("domains axis left key %d unchanged: %q", i, keys[i])
		}
		if !strings.Contains(domKeys[i], "|dom=") {
			t.Errorf("domains key %q missing |dom= token", domKeys[i])
		}
		if grpKeys[i] == keys[i] {
			t.Errorf("groups axis left key %d unchanged: %q", i, keys[i])
		}
		if !strings.Contains(grpKeys[i], "|groups=") {
			t.Errorf("groups key %q missing |groups= token", grpKeys[i])
		}
	}

	// Placement is part of the physical point: block and stripe domains
	// at equal size and rate must not share a key (or a seed).
	stripe := corrSweepRequest()
	stripe.Scenario.Domains = &scenario.DomainsSpec{Size: 4, BurstRate: 1e-5, Placement: "stripe"}
	stripeKeys, err := svc.PointKeys(stripe)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(domKeys, stripeKeys) {
		t.Error("block and stripe placements share point keys")
	}
}

// TestSweepCorrelatedDeterminism runs the correlated axes end to end
// through the sweep engine: the grid evaluates on both supporting
// backends, every point simulates, and two fresh services produce
// identical items (the correlated paths inherit the content-keyed
// seeding).
func TestSweepCorrelatedDeterminism(t *testing.T) {
	req := corrSweepRequest()
	req.Scenario.Domains = &scenario.DomainsSpec{Size: 4, BurstRate: 1e-4, Placement: "stripe"}
	req.Scenario.Groups = []float64{3, 1}

	a, statsA, err := NewService(Options{}).Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NewService(Options{Workers: 8}).Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("correlated sweep differs across services:\n%+v\n%+v", a, b)
	}
	if len(a) != 2 || statsA.CacheMisses != 2 {
		t.Fatalf("got %d items, stats %+v, want 2 simulated points", len(a), statsA)
	}
	for _, item := range a {
		if !item.Feasible {
			t.Errorf("correlated point infeasible: %+v", item)
		}
	}

	// A domain size that does not divide N is a layout problem, not a
	// request error: the grid degrades per point.
	bad := corrSweepRequest()
	bad.Scenario.Domains = &scenario.DomainsSpec{Size: 5, BurstRate: 1e-4}
	items, _, err := NewService(Options{}).Sweep(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range items {
		if item.Feasible {
			t.Errorf("non-dividing domain size produced a feasible point: %+v", item)
		}
	}
}

// TestSweepCorrelationGating pins the request-level gates: a value
// error in the spec, a multilevel backend in a correlated grid, and a
// trace on a non-detailed backend all fail the request up front.
func TestSweepCorrelationGating(t *testing.T) {
	svc := NewService(Options{})

	bad := corrSweepRequest()
	bad.Scenario.Domains = &scenario.DomainsSpec{Size: 4, BurstRate: -1}
	if _, _, err := svc.Sweep(context.Background(), bad); err == nil {
		t.Error("negative burst rate accepted")
	}
	bad = corrSweepRequest()
	bad.Scenario.Domains = &scenario.DomainsSpec{Size: 4, BurstRate: 1e-5, Placement: "ring"}
	if _, _, err := svc.Sweep(context.Background(), bad); err == nil {
		t.Error("unknown placement accepted")
	}

	ml := corrSweepRequest()
	ml.Backends = []string{"fast", "multilevel"}
	ml.Scenario.Global = &scenario.GlobalSpec{G: 200, Rg: 100}
	ml.Scenario.Groups = []float64{2, 1}
	if _, _, err := svc.Sweep(context.Background(), ml); err == nil {
		t.Error("correlated grid with a multilevel backend accepted")
	}

	if _, err := svc.RegisterTrace("small", testTrace(96, 3600, 1e6)); err != nil {
		t.Fatal(err)
	}
	tr := corrSweepRequest()
	tr.Scenario.Trace = "small"
	if _, _, err := svc.Sweep(context.Background(), tr); err == nil {
		t.Error("trace replay on the fast backend accepted")
	}
	tr.Backends = []string{"detailed"}
	tr.Scenario.Trace = "missing"
	if _, _, err := svc.Sweep(context.Background(), tr); err == nil {
		t.Error("unknown trace name accepted")
	}
	mismatch := corrSweepRequest()
	mismatch.Backends = []string{"detailed"}
	n := 48
	mismatch.Scenario.N = &n
	mismatch.Scenario.Trace = "small"
	if _, _, err := svc.Sweep(context.Background(), mismatch); err == nil {
		t.Error("trace/platform node-count mismatch accepted")
	}
}

// TestSweepTraceReplayDeterministicResume is the tentpole acceptance
// check for the trace axis: a recorded trace replayed through the
// sweep engine is deterministic across fresh services (both register
// the same log, so they derive the same content id, keys and seeds),
// and a resume from any offset — the durable-jobs and fabric path —
// reproduces the exact item suffix.
func TestSweepTraceReplayDeterministicResume(t *testing.T) {
	tr := testTrace(96, 3600, 1e7)
	req := corrSweepRequest()
	req.Backends = []string{"detailed"}
	req.Protocols = []string{"DoubleNBL", "Triple"}
	req.Scenario.Trace = "cronos"

	run := func(svc *Service) []SweepItem {
		t.Helper()
		if _, err := svc.RegisterTrace("cronos", tr); err != nil {
			t.Fatal(err)
		}
		items, _, err := svc.Sweep(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return items
	}
	a := run(NewService(Options{}))
	b := run(NewService(Options{Workers: 8}))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("trace sweep differs across services:\n%+v\n%+v", a, b)
	}
	if len(a) != 2 {
		t.Fatalf("got %d items, want 2", len(a))
	}
	for _, item := range a {
		if !item.Feasible || item.SimWaste <= 0 {
			t.Errorf("replayed point did not simulate: %+v", item)
		}
	}

	// Resume from offset 1 on a fresh, cold service: the emitted suffix
	// must be bitwise the tail of the full run.
	resumed := NewService(Options{})
	if _, err := resumed.RegisterTrace("cronos", tr); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var suffix []SweepItem
	err = resumed.SweepLines(context.Background(), body, 1, -1, jobs.Interactive, nil,
		func(line []byte) error {
			var item SweepItem
			if err := json.Unmarshal(line, &item); err != nil {
				return err
			}
			suffix = append(suffix, item)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(suffix, a[1:]) {
		t.Errorf("resumed suffix differs from the full run:\n%+v\n%+v", suffix, a[1:])
	}
}

// TestRegisterTraceContentAddressed pins the aliasing defence:
// re-binding a name to a different log changes the content id and
// therefore every point key, so stale cache entries can never serve
// the new trace.
func TestRegisterTraceContentAddressed(t *testing.T) {
	svc := NewService(Options{})
	req := corrSweepRequest()
	req.Backends = []string{"detailed"}
	req.Scenario.Trace = "cronos"

	id1, err := svc.RegisterTrace("cronos", testTrace(96, 3600, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	keys1, err := svc.PointKeys(req)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := svc.RegisterTrace("cronos", testTrace(96, 7200, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("different logs share the content id %q", id1)
	}
	keys2, err := svc.PointKeys(req)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(keys1, keys2) {
		t.Error("re-registered trace left the point keys unchanged")
	}
	for _, key := range keys1 {
		if !strings.Contains(key, "|trace="+id1) {
			t.Errorf("key %q missing trace id %q", key, id1)
		}
	}

	// An invalid trace never enters the registry.
	if _, err := svc.RegisterTrace("bad", &failure.Trace{Nodes: 0}); err == nil {
		t.Error("invalid trace registered")
	}
	if _, err := svc.RegisterTrace("", testTrace(96, 3600, 1e6)); err == nil {
		t.Error("empty trace name registered")
	}
	ids := svc.TraceIDs()
	if len(ids) != 1 || ids[0] != id2 {
		t.Errorf("TraceIDs = %v, want just %q", ids, id2)
	}
}
