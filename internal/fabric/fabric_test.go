package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
)

// sweepBody is the shared test request: the default protocol and φ/R
// axes over one MTBF — a 25-point grid, enough to land several ranges
// on every worker of a 3-node fleet.
const sweepBody = `{"scenario":{"mtbf":1800},"tbase":10000,"runs":2,"seed":7}`

func testOptions() api.Options {
	return api.Options{CacheSize: 64, Workers: 2, MaxRuns: 16}
}

// fault is a per-worker fault injector wrapped around the worker's API
// handler. Its zero value is transparent.
type fault struct {
	mu sync.Mutex
	// cutAfter > 0 aborts each sweep response's connection after that
	// many NDJSON lines.
	cutAfter int
	// hang blocks each sweep dispatch — writing nothing — until the
	// coordinator gives up (the partition case: the lease watchdog is
	// the only way out).
	hang bool
	// stall holds each sweep response open after its last line — no
	// chunk terminator, no trailers — until the coordinator gives up.
	stall bool
}

func (f *fault) middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			inner.ServeHTTP(w, r)
			return
		}
		f.mu.Lock()
		cut, hang, stall := f.cutAfter, f.hang, f.stall
		f.mu.Unlock()
		if hang {
			// Drain the body first: net/http only watches for client
			// aborts once the request body is consumed, and without
			// that watch the handler would outlive the coordinator's
			// cancelled dispatch and wedge server shutdown.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		}
		if cut > 0 {
			w = &cutoffWriter{ResponseWriter: w, remaining: cut}
		}
		inner.ServeHTTP(w, r)
		if stall {
			// As for hang: a consumed body lets net/http see the abort.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		}
	})
}

// cutoffWriter drops the connection once its line budget is spent,
// emulating a worker process killed mid-range.
type cutoffWriter struct {
	http.ResponseWriter
	remaining int
}

func (w *cutoffWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	w.remaining -= bytes.Count(p, []byte{'\n'})
	return w.ResponseWriter.Write(p)
}

func (w *cutoffWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// newFleet starts n in-process workers (each a full api server over its
// own service) and returns a coordinator over them plus the per-worker
// fault injectors.
func newFleet(t *testing.T, n int, cfg Config) (*Coordinator, []*fault) {
	t.Helper()
	faults := make([]*fault, n)
	urls := make([]string, n)
	for i := range urls {
		faults[i] = &fault{}
		ts := httptest.NewServer(faults[i].middleware(api.NewServer(api.NewService(testOptions()))))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	cfg.Workers = urls
	if cfg.Service == nil {
		cfg.Service = api.NewService(testOptions())
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord, faults
}

// singleNodeLines runs the request on one fresh node through the job
// executor — the same encoder the workers stream through — and returns
// the canonical request bytes and the reference NDJSON lines. This is
// the oracle every distributed run must match byte for byte.
func singleNodeLines(t *testing.T, body string) (canonical []byte, lines [][]byte) {
	t.Helper()
	svc := api.NewService(testOptions())
	canonical, _, err := svc.NormalizeJobRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	err = svc.JobExecutor()(context.Background(), canonical, 0, nil, func(line []byte) error {
		lines = append(lines, append([]byte(nil), line...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return canonical, lines
}

// collectDistributed runs the coordinator's executor path and returns
// the merged lines.
func collectDistributed(t *testing.T, coord *Coordinator, canonical []byte, offset int) [][]byte {
	t.Helper()
	var lines [][]byte
	total := -1
	err := coord.SweepStreamFrom(context.Background(), canonical, offset, func(n int) error {
		total = n
		return nil
	}, func(line []byte) error {
		lines = append(lines, append([]byte(nil), line...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total < 0 {
		t.Fatal("start callback never ran")
	}
	return lines
}

func requireIdentical(t *testing.T, got, want [][]byte) {
	t.Helper()
	if !bytes.Equal(bytes.Join(got, nil), bytes.Join(want, nil)) {
		if len(got) != len(want) {
			t.Fatalf("got %d lines, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("line %d differs:\ngot  %s\nwant %s", i, got[i], want[i])
			}
		}
		t.Fatal("outputs differ")
	}
}

// TestFabricThreeNodeByteIdentical is the central oracle and the CI
// smoke test: a 3-worker distributed sweep — executor path, streaming
// HTTP path, ranged HTTP path and non-streaming JSON path — produces
// exactly the bytes of a single-node run.
func TestFabricThreeNodeByteIdentical(t *testing.T) {
	canonical, want := singleNodeLines(t, sweepBody)
	coord, _ := newFleet(t, 3, Config{})

	requireIdentical(t, collectDistributed(t, coord, canonical, 0), want)
	// Resume offsets shard mid-grid (the durable-job resume path).
	requireIdentical(t, collectDistributed(t, coord, canonical, 11), want[11:])

	cts := httptest.NewServer(coord.Handler(api.NewServer(coord.cfg.Service)))
	defer cts.Close()

	// Streaming HTTP: body bytes equal the single-node stream.
	req, _ := http.NewRequest(http.MethodPost, cts.URL+"/v1/sweep", strings.NewReader(sweepBody))
	req.Header.Set("Accept", api.NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, bytes.Join(want, nil)) {
		t.Fatal("streamed HTTP body differs from single-node stream")
	}
	if got := resp.Trailer.Get(api.HeaderSweepPoints); got != "25" {
		t.Errorf("points trailer = %q, want 25", got)
	}

	// Ranged dispatch wire format on the coordinator itself (so a
	// coordinator can serve as a worker tier of a larger fabric).
	req, _ = http.NewRequest(http.MethodPost, cts.URL+"/v1/sweep?offset=5&limit=7", strings.NewReader(sweepBody))
	req.Header.Set("Accept", api.NDJSONContentType)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, bytes.Join(want[5:12], nil)) {
		t.Fatal("ranged HTTP body differs from the single-node slice")
	}
	// The points trailer counts the range, as a node's does; the cache
	// counts are the workers' and are not announced.
	if got := resp.Trailer.Get(api.HeaderSweepPoints); got != "7" {
		t.Errorf("ranged points trailer = %q, want 7", got)
	}
	for _, h := range []string{api.HeaderSweepHits, api.HeaderSweepMisses} {
		if _, ok := resp.Trailer[h]; ok {
			t.Errorf("coordinator announces %s", h)
		}
	}

	// Non-streaming JSON: byte-identical to the single-node response.
	single := httptest.NewServer(api.NewServer(api.NewService(testOptions())))
	defer single.Close()
	wantJSON := postJSON(t, single.URL+"/v1/sweep", sweepBody)
	gotJSON := postJSON(t, cts.URL+"/v1/sweep", sweepBody)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("non-streaming body differs:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}

func postJSON(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	return data
}

// TestFabricWorkerKilledMidRange: worker 0's connection drops after two
// lines of every dispatch. Its ranges are re-dispatched (resuming at
// the first undelivered point) and stolen by the survivors; the merged
// output is still byte-identical.
func TestFabricWorkerKilledMidRange(t *testing.T) {
	canonical, want := singleNodeLines(t, sweepBody)
	coord, faults := newFleet(t, 3, Config{Lease: 500 * time.Millisecond, MaxAttempts: 40})
	faults[0].cutAfter = 2
	requireIdentical(t, collectDistributed(t, coord, canonical, 0), want)
}

// TestFabricWorkerPartitioned: worker 1 accepts dispatches but never
// sends a byte — the network-partition case, where only the lease
// watchdog can reclaim the range. The sweep completes on the survivors,
// byte-identically.
func TestFabricWorkerPartitioned(t *testing.T) {
	canonical, want := singleNodeLines(t, sweepBody)
	coord, faults := newFleet(t, 3, Config{Lease: 200 * time.Millisecond, MaxAttempts: 60})
	faults[1].hang = true
	requireIdentical(t, collectDistributed(t, coord, canonical, 0), want)
}

// TestFabricStaleWorkerStolen: every worker is healthy but worker 2
// hangs on its first dispatch only; the range must come back through
// the watchdog + steal path and the duplicate deliveries dedupe.
func TestFabricStaleWorkerStolen(t *testing.T) {
	canonical, want := singleNodeLines(t, sweepBody)
	coord, faults := newFleet(t, 3, Config{Lease: 250 * time.Millisecond, StealAfter: 100 * time.Millisecond, MaxAttempts: 60})
	faults[2].mu.Lock()
	faults[2].hang = true
	faults[2].mu.Unlock()
	go func() {
		time.Sleep(150 * time.Millisecond)
		faults[2].mu.Lock()
		faults[2].hang = false
		faults[2].mu.Unlock()
	}()
	requireIdentical(t, collectDistributed(t, coord, canonical, 0), want)
}

// TestFabricAllWorkersBroken: with local fallback disabled, a sweep
// over a dead fleet fails with the worker's error after the attempt
// budget — never a silent truncation. (With fallback on — the default
// — the same fleet degrades to local execution; see
// TestFabricAllWorkersDarkDegradesLocal.)
func TestFabricAllWorkersBroken(t *testing.T) {
	canonical, _ := singleNodeLines(t, sweepBody)
	coord, faults := newFleet(t, 2, Config{Lease: 100 * time.Millisecond, MaxAttempts: 3, DisableLocalFallback: true})
	for _, f := range faults {
		f.cutAfter = 1 // dies inside the first line of every response
	}
	err := coord.SweepStreamFrom(context.Background(), canonical, 0, nil, func([]byte) error { return nil })
	if err == nil {
		t.Fatal("sweep over a dead fleet succeeded")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Errorf("error does not name the exhausted attempts: %v", err)
	}
}

// TestFabricCoordinatorRestartMidJob is the coordinator-crash drill: a
// distributed job checkpoints into the coordinator's store, the
// coordinator dies mid-sweep, a restarted coordinator adopts the job
// from its durable offset, and the final results file is byte-identical
// to an uninterrupted single-node run.
func TestFabricCoordinatorRestartMidJob(t *testing.T) {
	_, want := singleNodeLines(t, sweepBody)
	dir := t.TempDir()

	coord1, _ := newFleet(t, 3, Config{})
	gate := make(chan struct{})
	exec1 := coord1.Executor()
	// The gated executor stalls the first coordinator after 5 emitted
	// points so the kill lands mid-sweep with checkpoints on disk.
	gated := func(ctx context.Context, request []byte, offset int, start func(int) error, emit func(line []byte) error) error {
		n := 0
		return exec1(ctx, request, offset, start, func(line []byte) error {
			if n >= 5 {
				select {
				case <-gate:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			n++
			return emit(line)
		})
	}
	mgr1, err := jobs.NewManager(jobs.Config{
		Dir:             dir,
		CheckpointEvery: 2,
		Exec:            gated,
		Normalize:       coord1.cfg.Service.NormalizeJobRequest,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, created, err := mgr1.Submit([]byte(sweepBody))
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	id := meta.ID

	// Wait for durable progress, then kill the coordinator mid-job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m, err := mgr1.Get(id); err == nil && m.Completed >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable checkpoint before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mgr1.Close() // the "kill": cancels the in-flight distributed sweep

	crashed, err := jobs.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := crashed.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != jobs.Running || m.Completed >= m.Total {
		t.Fatalf("job after crash: state %s completed %d/%d, want mid-sweep running", m.State, m.Completed, m.Total)
	}

	// Restart: a fresh coordinator (fresh fleet, too) over the same
	// store adopts the job at recovery and resumes from the durable
	// offset.
	coord2, _ := newFleet(t, 3, Config{})
	mgr2, err := jobs.NewManager(jobs.Config{
		Dir:             dir,
		CheckpointEvery: 2,
		Exec:            coord2.Executor(),
		Normalize:       coord2.cfg.Service.NormalizeJobRequest,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := mgr2.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.Done {
		t.Fatalf("resumed job finished %s (%s), want done", final.State, final.Error)
	}
	results, err := os.ReadFile(mgr2.Store().ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(results, bytes.Join(want, nil)) {
		t.Fatal("post-restart results file differs from uninterrupted single-node run")
	}
}

// TestFabricEmitErrorAborts: a failing downstream consumer (client
// disconnect) aborts the whole sweep promptly with that error.
func TestFabricEmitErrorAborts(t *testing.T) {
	canonical, _ := singleNodeLines(t, sweepBody)
	coord, _ := newFleet(t, 2, Config{})
	boom := errors.New("client gone")
	n := 0
	err := coord.SweepStreamFrom(context.Background(), canonical, 0, nil, func([]byte) error {
		if n >= 3 {
			return boom
		}
		n++
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("emit error not surfaced: %v", err)
	}
}

// TestFabricRejectsBadRequests: validation errors surface before any
// dispatch, through both the executor and HTTP paths.
func TestFabricBadRequest(t *testing.T) {
	coord, _ := newFleet(t, 2, Config{})
	err := coord.SweepStreamFrom(context.Background(), []byte(`{"runs":-3}`), 0, nil, func([]byte) error { return nil })
	if err == nil {
		t.Fatal("invalid request accepted")
	}
	cts := httptest.NewServer(coord.Handler(api.NewServer(coord.cfg.Service)))
	defer cts.Close()
	resp, err := http.Post(cts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"runs":-3}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid request got status %d, want 400", resp.StatusCode)
	}
}

// TestCoordinatorRangeCostIndependentOfGrid is the coordinator's O(range)
// guard: planning a one-point range of a 3000-point grid allocates what
// the same range of a 300-point grid does, give or take a constant
// (5 protocols × 5 φ/R × 12 or 120 MTBFs; the larger body decodes into
// a longer MTBF axis), since only the range's keys are built.
func TestCoordinatorRangeCostIndependentOfGrid(t *testing.T) {
	coord, err := New(Config{Service: api.NewService(testOptions()), Workers: []string{"http://worker.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(mtbfs int) float64 {
		axis := make([]string, mtbfs)
		for i := range axis {
			axis[i] = fmt.Sprint(1800 + i)
		}
		body := []byte(`{"mtbfs":[` + strings.Join(axis, ",") + `],"tbase":10000,"runs":2}`)
		return testing.AllocsPerRun(20, func() {
			if _, err := coord.planSweep(body, 7, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(12), allocs(120)
	t.Logf("1-point range: %.0f allocs on the small grid, %.0f on the large one", small, large)
	if large > small+8 {
		t.Errorf("1-point range plan allocates %.0f times on the large grid vs %.0f on the small one: range cost grows with the grid",
			large, small)
	}
}

// TestFabricDispatchReusesConnections: a dispatch reads its response
// to EOF, so the transport pools the connection and every later
// dispatch to that worker reuses it. Each worker loop has at most one
// dispatch in flight, so over several sweeps each worker is dialled at
// most once.
func TestFabricDispatchReusesConnections(t *testing.T) {
	var mu sync.Mutex
	dials := map[string]int{}
	tr := DefaultTransport()
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		mu.Lock()
		dials[addr]++
		mu.Unlock()
		return dial(ctx, network, addr)
	}
	defer tr.CloseIdleConnections()
	coord, _ := newFleet(t, 3, Config{Client: &http.Client{Transport: tr}})
	dispatched := 0
	for seed := 1; seed <= 4; seed++ {
		body := fmt.Sprintf(`{"scenario":{"mtbf":1800},"tbase":10000,"runs":2,"seed":%d}`, seed)
		canonical, want := singleNodeLines(t, body)
		requireIdentical(t, collectDistributed(t, coord, canonical, 0), want)
		sweep, err := coord.cfg.Service.NormalizeSweep(canonical, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		dispatched += len(coord.ring.Ranges(sweep.Keys, 0))
	}
	if dispatched < 4*3 {
		t.Fatalf("only %d ranges over 4 sweeps: too few to show reuse", dispatched)
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for addr, n := range dials {
		total += n
		if n > 1 {
			t.Errorf("worker %s dialled %d times over %d dispatches", addr, n, dispatched)
		}
	}
	if total > 3 {
		t.Errorf("%d dials for 3 workers", total)
	}
}

// TestFabricStalledTrailerCostsNoLease: every worker delivers its lines
// and then holds the response open. The coordinator's read-to-EOF after
// the last line gives up after its own short bound, so the sweep
// finishes byte-identical and well inside one lease.
func TestFabricStalledTrailerCostsNoLease(t *testing.T) {
	canonical, want := singleNodeLines(t, sweepBody)
	const lease = 10 * time.Second
	coord, faults := newFleet(t, 3, Config{Lease: lease})
	for _, f := range faults {
		f.stall = true
	}
	start := time.Now()
	requireIdentical(t, collectDistributed(t, coord, canonical, 0), want)
	if elapsed := time.Since(start); elapsed > lease/2 {
		t.Fatalf("sweep took %v against stalled trailers (lease %v)", elapsed, lease)
	}
}
