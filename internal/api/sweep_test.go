package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/scenario"
)

// sweepBody is the fixed sweep request shared by the determinism and
// golden tests: 2 protocols × 2 overhead points × 2 MTBFs = 8 points,
// kept cheap with a short application and a small batch.
const sweepBody = `{
	"scenario": {"name": "Base"},
	"protocols": ["DoubleNBL", "Triple"],
	"phiFracs": [0.25, 0.75],
	"mtbfs": [3600, 7200],
	"tbase": 20000,
	"runs": 4,
	"seed": 42
}`

// sweepResponse is the non-streaming /v1/sweep body.
type sweepResponse struct {
	Items []SweepItem `json:"items"`
}

func sweepRequest() SweepRequest {
	var req SweepRequest
	if err := json.Unmarshal([]byte(sweepBody), &req); err != nil {
		panic(err)
	}
	return req
}

// TestSweepCacheDeterminism is the acceptance check: the same sweep
// twice gives byte-identical bodies, and the second is served entirely
// from the cache without touching the simulator.
func TestSweepCacheDeterminism(t *testing.T) {
	svc, ts := newTestServer(t)

	first := post(t, ts.URL+"/v1/sweep", sweepBody, nil)
	firstBody := readBody(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", first.StatusCode, firstBody)
	}
	if got, want := first.Header.Get(HeaderSweepMisses), "8"; got != want {
		t.Errorf("first sweep cache misses = %s, want %s", got, want)
	}
	simulated := svc.SimPoints()
	if simulated == 0 {
		t.Fatal("first sweep did not reach the simulator")
	}

	second := post(t, ts.URL+"/v1/sweep", sweepBody, nil)
	secondBody := readBody(t, second)
	if !bytes.Equal(firstBody, secondBody) {
		t.Errorf("repeated sweep is not byte-identical:\nfirst:\n%s\nsecond:\n%s", firstBody, secondBody)
	}
	if got, want := second.Header.Get(HeaderSweepHits), "8"; got != want {
		t.Errorf("second sweep cache hits = %s, want %s", got, want)
	}
	if svc.SimPoints() != simulated {
		t.Errorf("second sweep ran the simulator: %d points before, %d after",
			simulated, svc.SimPoints())
	}
}

// TestSweepWorkerCountIndependence pins the determinism guarantee the
// cache relies on: the items do not depend on how the grid is split
// across workers.
func TestSweepWorkerCountIndependence(t *testing.T) {
	req := sweepRequest()
	serial := NewService(Options{Workers: 1})
	wide := NewService(Options{Workers: 8})
	a, _, err := serial.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := wide.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sweep differs between 1 and 8 workers:\n%+v\n%+v", a, b)
	}
}

// TestSweepSeedIndependentOfGridShape checks the content-keyed
// seeding: the same physical point gets the same sample whether it is
// swept alone or as part of a larger grid, so overlapping sweeps share
// cache entries.
func TestSweepSeedIndependentOfGridShape(t *testing.T) {
	svc := NewService(Options{})
	full := sweepRequest()
	sub := full
	sub.Protocols = []string{"Triple"}
	sub.PhiFracs = []float64{0.75}
	sub.MTBFs = []float64{7200}

	fullItems, _, err := svc.Sweep(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	simulated := svc.SimPoints()
	subItems, stats, err := svc.Sweep(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || svc.SimPoints() != simulated {
		t.Errorf("sub-sweep should hit the cache: stats %+v, sim %d -> %d",
			stats, simulated, svc.SimPoints())
	}
	want := fullItems[len(fullItems)-1] // Triple, 0.75, 7200 is the last grid point
	if !reflect.DeepEqual(subItems[0], want) {
		t.Errorf("point differs between grids:\n%+v\n%+v", subItems[0], want)
	}
}

// TestSweepStreamNDJSON exercises the streaming response: one valid
// JSON object per line, same items as the buffered response, stats in
// the trailers.
func TestSweepStreamNDJSON(t *testing.T) {
	svc, ts := newTestServer(t)
	buffered, _, err := svc.Sweep(context.Background(), sweepRequest())
	if err != nil {
		t.Fatal(err)
	}

	resp := post(t, ts.URL+"/v1/sweep", sweepBody, http.Header{"Accept": []string{NDJSONContentType}})
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != NDJSONContentType {
		t.Errorf("content type %q, want %q", got, NDJSONContentType)
	}
	var items []SweepItem
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var item SweepItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		items = append(items, item)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, buffered) {
		t.Errorf("streamed items differ from buffered items")
	}
	// Trailers are only populated after the body is consumed.
	if got, want := resp.Trailer.Get(HeaderSweepPoints), fmt.Sprint(len(buffered)); got != want {
		t.Errorf("trailer %s = %q, want %q", HeaderSweepPoints, got, want)
	}
}

// TestSweepConcurrentRequests hammers the endpoint from many
// goroutines mixing distinct seeds (cache misses) and shared seeds
// (cache hits); under -race this is the concurrent-safety check for
// the pool, the cache and the counters.
func TestSweepConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t)
	body := func(seed int) string {
		return fmt.Sprintf(`{"protocols": ["DoubleNBL"], "phiFracs": [0.25, 0.5],
			"mtbfs": [3600], "tbase": 10000, "runs": 2, "seed": %d}`, seed)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*4)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
					strings.NewReader(body(g%3))) // 3 distinct seeds shared across goroutines
				if err != nil {
					errs <- err.Error()
					return
				}
				var out sweepResponse
				data := new(bytes.Buffer)
				data.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, data)
					return
				}
				if err := json.Unmarshal(data.Bytes(), &out); err != nil {
					errs <- err.Error()
					return
				}
				if len(out.Items) != 2 {
					errs <- fmt.Sprintf("got %d items, want 2", len(out.Items))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSweepInfeasiblePointsSkipSimulator checks that a saturated MTBF
// (15 s on Base, where no protocol progresses) yields a feasible=false
// item without burning simulator time.
func TestSweepInfeasiblePointsSkipSimulator(t *testing.T) {
	svc := NewService(Options{})
	req := sweepRequest()
	req.Protocols = []string{"DoubleNBL"}
	req.PhiFracs = []float64{0.5}
	req.MTBFs = []float64{15}
	items, _, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatalf("got %d items", len(items))
	}
	if items[0].Feasible || items[0].ModelWaste != 1 {
		t.Errorf("expected infeasible saturated point, got %+v", items[0])
	}
	if svc.SimPoints() != 0 {
		t.Errorf("infeasible point reached the simulator")
	}
}

func TestSweepDefaultsCoverAllProtocols(t *testing.T) {
	svc := NewService(Options{MaxRuns: 4})
	req := SweepRequest{Tbase: 10000, Runs: 2, Seed: 7}
	mtbf := 1800.0
	req.Scenario.MTBF = &mtbf
	items, stats, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// 5 protocols × default 5 φ points × 1 MTBF.
	if want := 25; len(items) != want || stats.Points != want {
		t.Errorf("got %d items, stats %+v, want %d points", len(items), stats, want)
	}
	seen := map[string]bool{}
	for _, item := range items {
		seen[item.Protocol] = true
	}
	if len(seen) != 5 {
		t.Errorf("defaults covered protocols %v, want all 5", seen)
	}
}

// TestSweepDoubleBlockingCollapses checks φ canonicalization:
// DoubleBlocking pins φ = R, so its grid points at different requested
// φ/R are the same physical point — one simulation, one cache entry,
// identical items reporting the effective φ/R of 1.
func TestSweepDoubleBlockingCollapses(t *testing.T) {
	// One worker serializes the three identical-key points so the
	// second and third deterministically hit the first one's cache
	// entry (with parallel workers they could race past each other and
	// each simulate — same result, but nondeterministic stats).
	svc := NewService(Options{Workers: 1})
	req := sweepRequest()
	req.Protocols = []string{"DoubleBlocking"}
	req.PhiFracs = []float64{0, 0.5, 1}
	req.MTBFs = []float64{3600}
	items, stats, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 1 || stats.CacheHits != 2 {
		t.Errorf("stats %+v, want 1 miss + 2 hits", stats)
	}
	if svc.SimPoints() != 1 {
		t.Errorf("simulated %d points, want 1", svc.SimPoints())
	}
	for _, item := range items {
		if item.PhiFrac != 1 {
			t.Errorf("DoubleBlocking item reports phiFrac %v, want effective 1", item.PhiFrac)
		}
		if !reflect.DeepEqual(item, items[0]) {
			t.Errorf("collapsed points differ: %+v vs %+v", item, items[0])
		}
	}
}

// TestRunPlanClaimRule pins the pool tokens a sweep point takes: a
// cached point none — it completes while every token is held
// elsewhere — and a miss only the workers its widest round keeps busy:
// one for a 2-run i.i.d. point, whose runs fill one lane group, but
// one per run for a 4-run Weibull point on the scalar renewal path.
// Behind the range's first Capacity points an adaptive lane point
// claims one worker; a fixed-budget point there, and an adaptive point
// on the scalar path, keep their full claim.
func TestRunPlanClaimRule(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	svc := NewService(Options{Workers: 4})
	req := sweepRequest()
	req.Protocols, req.PhiFracs, req.MTBFs, req.Runs = []string{"DoubleNBL"}, []float64{0.5}, []float64{3600}, 2
	if _, _, err := svc.Sweep(ctx, req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := svc.pool.Acquire(ctx, jobs.Interactive); err != nil {
			t.Fatal(err)
		}
	}
	_, stats, err := svc.Sweep(ctx, req)
	for i := 0; i < 4; i++ {
		svc.pool.Release()
	}
	if err != nil || stats.CacheHits != 1 {
		t.Fatalf("cached sweep with every token held: stats %+v, err %v", stats, err)
	}
	if hits, misses := svc.Cache().Stats(); hits != 1 || misses != 1 {
		t.Errorf("cache counted %d hits, %d misses over a miss and a hit", hits, misses)
	}

	claim := func(req SweepRequest, i int) int {
		t.Helper()
		pl, err := svc.plan(&req)
		if err != nil {
			t.Fatal(err)
		}
		pt := pl.point(0)
		_, held, err := svc.admit(ctx, jobs.Interactive, pt.key, pl.workers(pt, i, svc.pool.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		return held
	}
	fresh := req
	fresh.Seed++
	if held := claim(fresh, 0); held != 1 {
		t.Errorf("2-run i.i.d. point claimed %d tokens, want 1", held)
	}
	if !svc.pool.TryAcquire() {
		t.Error("no token idle beside the 2-run point's")
	}
	svc.pool.Release()
	svc.pool.Release()
	weibull := fresh
	weibull.Runs = 4
	weibull.Scenario = scenario.Spec{Name: "Base", Law: "weibull", Shape: 0.7}
	if held := claim(weibull, 0); held != 4 {
		t.Errorf("4-run Weibull point claimed %d tokens, want 4", held)
	}
	for i := 0; i < 4; i++ {
		svc.pool.Release()
	}

	adaptive := fresh
	adaptive.Runs, adaptive.TargetRelErr, adaptive.MaxRuns = 16, 0.05, 64
	wide := fresh
	wide.Runs = 64
	weibullAdaptive := adaptive
	weibullAdaptive.Scenario = weibull.Scenario
	for _, c := range []struct {
		name string
		req  SweepRequest
		i    int
		want int
	}{
		{"adaptive lane point at the head", adaptive, 0, 4},
		{"adaptive lane point last in the head", adaptive, 3, 4},
		{"adaptive lane point behind the head", adaptive, 4, 1},
		{"fixed-budget lane point behind the head", wide, 4, 4},
		{"adaptive Weibull point behind the head", weibullAdaptive, 4, 4},
	} {
		held := claim(c.req, c.i)
		if held != c.want {
			t.Errorf("%s (index %d) claimed %d tokens, want %d", c.name, c.i, held, c.want)
		}
		for ; held > 0; held-- {
			svc.pool.Release()
		}
	}
}

// TestCacheCountsEachPointOnce: the feeder may look a point up twice,
// before its token and once it holds one, but the cache (and so
// /healthz) counts one lookup per point: DoubleBlocking's three
// collapsed φ rows on one worker are one miss and two hits.
func TestCacheCountsEachPointOnce(t *testing.T) {
	svc := NewService(Options{Workers: 1})
	req := sweepRequest()
	req.Protocols, req.PhiFracs, req.MTBFs = []string{"DoubleBlocking"}, []float64{0, 0.5, 1}, []float64{3600}
	if _, _, err := svc.Sweep(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if hits, misses := svc.Cache().Stats(); hits != 2 || misses != 1 {
		t.Errorf("cache counted %d hits, %d misses; want 2 and 1", hits, misses)
	}
}

// TestSweepDefaultRunsSimulate pins the runs default: a request that
// omits "runs" must simulate the documented 8-run batch (not a 0-run
// batch whose empty aggregate would poison the cache under the
// runs=8 key).
func TestSweepDefaultRunsSimulate(t *testing.T) {
	svc := NewService(Options{})
	req := sweepRequest()
	req.Protocols = []string{"DoubleNBL"}
	req.PhiFracs = []float64{0.5}
	req.MTBFs = []float64{1800}
	req.Runs = 0
	items, _, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Runs != 8 {
		t.Errorf("runs = %d, want the default 8", items[0].Runs)
	}
	if items[0].SimWaste <= 0 || items[0].CompletedRate != 1 {
		t.Errorf("default-runs point was not simulated: %+v", items[0])
	}
}

// TestSweepFixedPeriodPartialInfeasibility checks that a fixed period
// below one protocol's MinPeriod marks that point Feasible=false like
// the MTBF-too-small path, instead of aborting the rest of the grid.
func TestSweepFixedPeriodPartialInfeasibility(t *testing.T) {
	svc := NewService(Options{})
	req := sweepRequest()
	req.Protocols = []string{"DoubleNBL", "Triple"}
	req.PhiFracs = []float64{0}
	req.MTBFs = []float64{3600}
	// At φ = 0 on Base, θ = 44: MinPeriod is 46 for DoubleNBL but 88
	// for Triple, so a fixed period of 60 splits the grid.
	req.Period = 60
	items, _, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	if !items[0].Feasible || items[0].SimWaste == 0 {
		t.Errorf("DoubleNBL at period 60 should simulate: %+v", items[0])
	}
	if items[1].Feasible || items[1].ModelWaste != 1 {
		t.Errorf("Triple at period 60 < MinPeriod 88 should be infeasible: %+v", items[1])
	}
}

// TestSweepClientDisconnectStopsWorkers checks cancellation: when the
// context dies mid-sweep, the workers stop picking up grid points
// instead of simulating the rest of the grid.
func TestSweepClientDisconnectStopsWorkers(t *testing.T) {
	svc := NewService(Options{Workers: 1})
	req := sweepRequest()
	req.Runs = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	brokenPipe := fmt.Errorf("client went away")
	_, err := svc.SweepStream(ctx, req, func(SweepItem) error {
		emitted++
		cancel()
		return brokenPipe
	})
	if err != brokenPipe {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if emitted != 1 {
		t.Errorf("emitted %d items, want 1", emitted)
	}
	// With one worker and a cancelled feeder, only the points already
	// in flight at cancellation can still be simulated — far fewer
	// than the 8-point grid.
	if n := svc.SimPoints(); n > 4 {
		t.Errorf("workers simulated %d of 8 points after cancellation", n)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", SweepItem{Seed: 1})
	c.Put("b", SweepItem{Seed: 2})
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", SweepItem{Seed: 3}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Errorf("stats = %d hits/%d misses, want 3/1", hits, misses)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Put("a", SweepItem{})
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache must not store")
	}
}

// TestSweepReusesCompiledBatches pins the compiled-batch reuse: a
// repeat of the same physical grid under a different seed misses the
// item cache (the seed is part of the point key) and simulates again,
// but compiles no new batches — the physical configurations are
// already compiled.
func TestSweepReusesCompiledBatches(t *testing.T) {
	svc := NewService(Options{})
	req := sweepRequest()
	if _, _, err := svc.Sweep(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	compiled := svc.batches.len()
	if compiled == 0 {
		t.Fatal("first sweep compiled no batches")
	}
	req.Seed = 43 // fresh sample, same physical grid
	_, stats, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 8 {
		t.Errorf("re-seeded sweep stats %+v, want 8 item-cache misses", stats)
	}
	if got := svc.batches.len(); got != compiled {
		t.Errorf("batch cache grew from %d to %d on a re-seeded sweep", compiled, got)
	}
}

// detailedSweepBody is a small detailed-backend sweep: the platform is
// shrunk to 96 ranks so the substrate-backed runs stay cheap.
const detailedSweepBody = `{
	"scenario": {"name": "Base", "n": 96, "backend": "detailed"},
	"protocols": ["DoubleNBL", "Triple"],
	"phiFracs": [0.25],
	"mtbfs": [900],
	"tbase": 10000,
	"runs": 2,
	"seed": 42
}`

// TestSweepDetailedBackend runs the acceptance sweep on the detailed
// engine: points simulate, the backend is echoed per item, and
// repeated requests are byte-identical and cache-served.
func TestSweepDetailedBackend(t *testing.T) {
	svc, ts := newTestServer(t)
	first := post(t, ts.URL+"/v1/sweep", detailedSweepBody, nil)
	firstBody := readBody(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", first.StatusCode, firstBody)
	}
	var out sweepResponse
	if err := json.Unmarshal(firstBody, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 2 {
		t.Fatalf("got %d items, want 2", len(out.Items))
	}
	for _, item := range out.Items {
		if item.Backend != "detailed" {
			t.Errorf("item backend = %q, want detailed", item.Backend)
		}
		if !item.Feasible || item.SimWaste <= 0 {
			t.Errorf("detailed point did not simulate: %+v", item)
		}
	}
	if svc.SimPoints() != 2 {
		t.Errorf("simulated %d points, want 2", svc.SimPoints())
	}

	second := post(t, ts.URL+"/v1/sweep", detailedSweepBody, nil)
	secondBody := readBody(t, second)
	if !bytes.Equal(firstBody, secondBody) {
		t.Errorf("repeated detailed sweep is not byte-identical")
	}
	if got, want := second.Header.Get(HeaderSweepHits), "2"; got != want {
		t.Errorf("second sweep cache hits = %s, want %s", got, want)
	}
	if svc.SimPoints() != 2 {
		t.Errorf("second sweep ran the simulator")
	}
}

// TestSweepBackendsAxis pins the backend grid axis: a fast+detailed
// sweep evaluates each physical point once per backend, in backend-
// outermost order, and the fast half is identical — seeds, samples and
// bytes — to a plain fast-only sweep of the same grid (the backend
// leaves the fast point keys untouched).
func TestSweepBackendsAxis(t *testing.T) {
	svc := NewService(Options{})
	req := SweepRequest{
		Backends:  []string{"fast", "detailed"},
		Protocols: []string{"DoubleNBL"},
		PhiFracs:  []float64{0.25, 0.75},
		MTBFs:     []float64{900},
		Tbase:     10000,
		Runs:      2,
		Seed:      7,
	}
	n := 96
	req.Scenario.N = &n
	items, stats, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 || stats.Points != 4 {
		t.Fatalf("got %d items, stats %+v, want 4 points", len(items), stats)
	}
	fastOnly := req
	fastOnly.Backends = nil
	fastItems, _, err := svc.Sweep(context.Background(), fastOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items[:2], fastItems) {
		t.Errorf("fast half of the backends axis differs from a fast-only sweep:\n%+v\n%+v",
			items[:2], fastItems)
	}
	for i, item := range items {
		want := ""
		if i >= 2 {
			want = "detailed"
		}
		if item.Backend != want {
			t.Errorf("item %d backend = %q, want %q", i, item.Backend, want)
		}
	}
	// The detailed engine shares the fast timeline, so at equal seeds
	// the measured waste agrees exactly; the seeds ARE equal only if the
	// keys differ per backend — which the distinct cache misses prove.
	if stats.CacheMisses != 4 {
		t.Errorf("stats %+v, want 4 distinct misses", stats)
	}
}

// TestSweepMultilevelBackend checks the two-level backend through the
// service: a hostile MTBF where the buddy protocols suffer fatal
// chains yields complete, non-fatal multilevel items.
func TestSweepMultilevelBackend(t *testing.T) {
	svc := NewService(Options{})
	req := SweepRequest{
		Protocols: []string{"DoubleNBL"},
		PhiFracs:  []float64{0.25},
		MTBFs:     []float64{300},
		Tbase:     5000,
		Runs:      4,
		Seed:      11,
	}
	req.Scenario.Backend = "multilevel"
	req.Scenario.Global = &scenario.GlobalSpec{G: 50, Rg: 50}
	items, _, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatalf("got %d items", len(items))
	}
	item := items[0]
	if item.Backend != "multilevel" || !item.Feasible {
		t.Fatalf("unexpected multilevel item: %+v", item)
	}
	if item.FatalRate != 0 || item.CompletedRate != 1 {
		t.Errorf("multilevel item should absorb fatal failures: %+v", item)
	}
	if item.ModelWaste <= 0 || item.ModelWaste >= 1 {
		t.Errorf("multilevel model waste %v out of (0, 1)", item.ModelWaste)
	}

	// Without a global level the backend is a request error, not a 500.
	bad := req
	bad.Scenario.Global = nil
	if _, _, err := svc.Sweep(context.Background(), bad); err == nil {
		t.Error("multilevel sweep without scenario.global must fail")
	}
}

// TestSweepWeibullLaw checks the law axis: a Weibull sweep is keyed
// separately from the exponential one (distinct samples), echoes the
// law per item, and stays deterministic.
func TestSweepWeibullLaw(t *testing.T) {
	svc := NewService(Options{})
	req := SweepRequest{
		Protocols: []string{"DoubleNBL"},
		PhiFracs:  []float64{0.25},
		MTBFs:     []float64{900},
		Tbase:     10000,
		Runs:      4,
		Seed:      9,
	}
	n := 128 // renewal sources are O(n) per run; keep the platform small
	req.Scenario.N = &n
	expItems, _, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wei := req
	wei.Scenario.Law = "weibull"
	wei.Scenario.Shape = 0.7
	weiItems, stats, err := svc.Sweep(context.Background(), wei)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 1 {
		t.Errorf("weibull point must miss the exponential cache entry: %+v", stats)
	}
	if weiItems[0].Law != "weibull(0.7)" {
		t.Errorf("law echo = %q, want weibull(0.7)", weiItems[0].Law)
	}
	if expItems[0].Law != "" {
		t.Errorf("exponential law echo = %q, want omitted", expItems[0].Law)
	}
	if weiItems[0].SimWaste == expItems[0].SimWaste {
		t.Errorf("weibull sample equals exponential sample: %+v", weiItems[0])
	}
	again, _, err := svc.Sweep(context.Background(), wei)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(weiItems, again) {
		t.Errorf("repeated weibull sweep differs")
	}
}

// TestSweepDetailedIndivisiblePlatform checks graceful degradation: a
// triple-protocol detailed point on a platform not divisible into
// triples is a Feasible=false item, not an aborted grid.
func TestSweepDetailedIndivisiblePlatform(t *testing.T) {
	svc := NewService(Options{})
	req := SweepRequest{
		Protocols: []string{"DoubleNBL", "Triple"},
		PhiFracs:  []float64{0.25},
		MTBFs:     []float64{900},
		Tbase:     10000,
		Runs:      2,
		Seed:      3,
	}
	n := 100 // divisible by 2, not by 3
	req.Scenario.N = &n
	req.Scenario.Backend = "detailed"
	items, _, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	if !items[0].Feasible || items[0].SimWaste <= 0 {
		t.Errorf("DoubleNBL on 100 ranks should simulate: %+v", items[0])
	}
	if items[1].Feasible || items[1].ModelWaste != 1 {
		t.Errorf("Triple on 100 ranks should be infeasible: %+v", items[1])
	}
}

// TestSweepDetailedDefaultKnobsShareKeys pins the substrate-default
// normalization: spelling out the default spares/imageBytes values is
// the same physical point as omitting them — same derived seed, same
// cache entry, identical items.
func TestSweepDetailedDefaultKnobsShareKeys(t *testing.T) {
	svc := NewService(Options{})
	req := SweepRequest{
		Protocols: []string{"DoubleNBL"},
		PhiFracs:  []float64{0.25},
		MTBFs:     []float64{900},
		Tbase:     10000,
		Runs:      2,
		Seed:      42,
	}
	n := 96
	req.Scenario.N = &n
	req.Scenario.Backend = "detailed"
	implicit, _, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	spelled := req
	spelled.Scenario.Spares = 96/10 + 1
	spelled.Scenario.ImageBytes = 512 << 20
	explicit, stats, err := svc.Sweep(context.Background(), spelled)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 {
		t.Errorf("explicit-default sweep should hit the implicit point's cache entry: %+v", stats)
	}
	if !reflect.DeepEqual(implicit, explicit) {
		t.Errorf("explicit defaults diverge from omitted defaults:\n%+v\n%+v", implicit, explicit)
	}
}
