package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// newJobsManager builds a durable job manager over dir wired to svc's
// execution engine, with a small checkpoint interval so tests exercise
// multiple chunks.
func newJobsManager(t *testing.T, svc *Service, dir string, maxConcurrent int) *jobs.Manager {
	t.Helper()
	mgr, err := jobs.NewManager(jobs.Config{
		Dir:             dir,
		MaxConcurrent:   maxConcurrent,
		CheckpointEvery: 2,
		Exec:            svc.JobExecutor(),
		Normalize:       svc.NormalizeJobRequest,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return mgr
}

// newJobsServer is newTestServer plus an attached job manager.
func newJobsServer(t *testing.T, maxConcurrent int) (*Service, *jobs.Manager, *httptest.Server) {
	t.Helper()
	svc := NewService(Options{})
	mgr := newJobsManager(t, svc, t.TempDir(), maxConcurrent)
	svc.AttachJobs(mgr)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	return svc, mgr, ts
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// ndjsonSweep returns the exact NDJSON byte stream of a sweep request:
// the reference a job's results file must match.
func ndjsonSweep(t *testing.T, svc *Service, body string) []byte {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	items, _, err := svc.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, item := range items {
		if err := enc.Encode(item); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestJobLifecycleHTTP drives the full /v1/jobs surface over HTTP:
// submit (202), status polling, NDJSON results identical to the
// synchronous sweep stream, resume offset, duplicate-submission
// dedupe (200, same id), and delete.
func TestJobLifecycleHTTP(t *testing.T) {
	svc, mgr, ts := newJobsServer(t, 1)

	resp := post(t, ts.URL+"/v1/jobs", sweepBody, nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var meta jobs.Meta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Total != 8 {
		t.Errorf("submitted job total = %d, want the 8-point grid", meta.Total)
	}

	final, err := mgr.Wait(testCtx(t), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.Done || final.Completed != 8 {
		t.Fatalf("final status %+v", final)
	}

	// Status over HTTP agrees.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got jobs.Meta
	if err := json.Unmarshal(readBody(t, resp), &got); err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.Done || got.Completed != 8 {
		t.Errorf("GET status %+v", got)
	}

	// Results are byte-identical to the synchronous NDJSON stream.
	want := ndjsonSweep(t, svc, sweepBody)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + meta.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Errorf("results content type %q", ct)
	}
	results := readBody(t, resp)
	if !bytes.Equal(results, want) {
		t.Errorf("job results differ from the sweep stream:\n%s\nwant:\n%s", results, want)
	}

	// Resume offset returns exactly the suffix.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + meta.ID + "/results?offset=6")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	suffix := append(append([]byte{}, lines[6]...), lines[7]...)
	if tail := readBody(t, resp); !bytes.Equal(tail, suffix) {
		t.Errorf("offset=6 results:\n%s\nwant:\n%s", tail, suffix)
	}

	// Duplicate submission dedupes to the same (now done) job: 200, not
	// 202, and no new execution.
	simulated := svc.SimPoints()
	resp = post(t, ts.URL+"/v1/jobs", sweepBody, nil)
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit status %d: %s", resp.StatusCode, body)
	}
	var dup jobs.Meta
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != meta.ID || dup.State != jobs.Done {
		t.Errorf("duplicate submission got %+v, want the done job %s", dup, meta.ID)
	}
	if svc.SimPoints() != simulated {
		t.Errorf("duplicate submission re-simulated")
	}

	// List shows it; delete removes it.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list jobListResponse
	if err := json.Unmarshal(readBody(t, resp), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != meta.ID {
		t.Errorf("job list %+v", list)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+meta.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp, err = http.Get(ts.URL + "/v1/jobs/" + meta.ID); err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted job status code %d, want 404", resp.StatusCode)
	}
}

// TestJobResumeAfterRestartBitwise is the PR's acceptance test: a
// server killed mid-sweep — durable prefix, torn half-line tail, meta
// frozen at "running" — is restarted as a fresh process (new Service,
// empty caches), resumes the job from its last durable point, and the
// final results file is byte-identical to an uninterrupted run.
func TestJobResumeAfterRestartBitwise(t *testing.T) {
	// Uninterrupted reference run in its own store.
	refSvc := NewService(Options{})
	refMgr := newJobsManager(t, refSvc, t.TempDir(), 1)
	refMeta, created, err := refMgr.Submit([]byte(sweepBody))
	if err != nil || !created {
		t.Fatalf("submit: %v (created %v)", err, created)
	}
	if _, err := refMgr.Wait(testCtx(t), refMeta.ID); err != nil {
		t.Fatal(err)
	}
	refStore, err := jobs.NewStore(refMgr.Store().Dir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refStore.ResultsPath(refMeta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(want, []byte("\n")); lines != 8 {
		t.Fatalf("reference run has %d lines, want 8", lines)
	}

	// Fabricate the killed server's disk state: 3 durable lines plus a
	// torn tail of line 4, checkpoint marker mid-chunk.
	dir := t.TempDir()
	store, err := jobs.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	freshSvc := NewService(Options{}) // the "restarted process"
	canonical, total, err := freshSvc.NormalizeJobRequest([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	id := jobs.IDFor(canonical)
	if id != refMeta.ID {
		t.Fatalf("content key differs across services: %s vs %s", id, refMeta.ID)
	}
	killed := jobs.Meta{ID: id, State: jobs.Running, Total: total, Completed: 2, CreatedAt: 1}
	if err := store.Create(killed, canonical); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	torn := bytes.Join(lines[:3], nil)
	torn = append(torn, lines[3][:10]...) // half of line 4
	if err := os.WriteFile(store.ResultsPath(id), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	mgr := newJobsManager(t, freshSvc, dir, 1)
	final, err := mgr.Wait(testCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.Done || final.Completed != 8 {
		t.Fatalf("resumed job status %+v", final)
	}
	got, err := os.ReadFile(store.ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed results are not byte-identical:\n%s\nwant:\n%s", got, want)
	}
	// The resumed half really was recomputed by the fresh process, not
	// replayed: points 4..8 (minus the DoubleBlocking collapse, if any)
	// hit the fresh service's simulator.
	if freshSvc.SimPoints() == 0 {
		t.Error("restarted service never simulated; resume replayed nothing")
	}
}

// TestJobCancelAndErrorRecord: a job cancelled over HTTP mid-run turns
// terminal, and its results stream ends with the {"error": ...}
// record instead of silently truncating.
func TestJobCancelAndErrorRecord(t *testing.T) {
	// Workers: 1, and the test itself holds the pool's only token: the
	// job transitions to running but cannot evaluate a single point
	// until cancelled — the cancel-while-running window is structural,
	// not a scheduling race.
	svc := NewService(Options{Workers: 1})
	mgr := newJobsManager(t, svc, t.TempDir(), 1)
	svc.AttachJobs(mgr)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	if err := svc.pool.Acquire(context.Background(), jobs.Interactive); err != nil {
		t.Fatal(err)
	}
	defer svc.pool.Release()

	resp := post(t, ts.URL+"/v1/jobs", sweepBody, nil)
	var b jobs.Meta
	if err := json.Unmarshal(readBody(t, resp), &b); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", resp.StatusCode, b)
	}
	// Wait until the runner picked the job up (running is persisted and
	// notified before execution starts).
	ctx := testCtx(t)
	for {
		got, err := mgr.Get(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == jobs.Running {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("job never started: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var atDelete jobs.Meta
	if err := json.Unmarshal(readBody(t, resp), &atDelete); err != nil {
		t.Fatal(err)
	}
	if atDelete.State.Terminal() && atDelete.State != jobs.Cancelled {
		t.Fatalf("job reached %s before the cancel landed", atDelete.State)
	}
	// The transition is async for a running job; wait for it.
	final, err := mgr.Wait(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.Cancelled {
		t.Fatalf("job ended as %s, want cancelled", final.State)
	}

	// The results stream terminates with the error record.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + b.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	var e errorResponse
	if err := json.Unmarshal(lines[len(lines)-1], &e); err != nil || e.Error == "" {
		t.Fatalf("cancelled job results end with %q, want an error record (%v)",
			lines[len(lines)-1], err)
	}

	// Status agrees.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + b.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got jobs.Meta
	if err := json.Unmarshal(readBody(t, resp), &got); err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.Cancelled {
		t.Errorf("cancelled job state %s", got.State)
	}
}

// TestJobDedupeSpelledOutDefaults pins the canonicalization: a sweep
// that omits an axis and one that spells out that axis's documented
// default are the same content key, hence the same job.
func TestJobDedupeSpelledOutDefaults(t *testing.T) {
	svc := NewService(Options{})
	implicit := `{"protocols": ["Triple"], "mtbfs": [1800], "tbase": 10000, "runs": 2, "seed": 5}`
	explicit := `{"scenario": {"name": "Base", "backend": "fast", "law": "exponential"},
		"backends": ["fast"], "protocols": ["Triple"],
		"phiFracs": [0, 0.25, 0.5, 0.75, 1], "mtbfs": [1800],
		"tbase": 10000, "runs": 2, "seed": 5}`
	a, _, err := svc.NormalizeJobRequest([]byte(implicit))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := svc.NormalizeJobRequest([]byte(explicit))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("spelled-out defaults canonicalize differently:\n%s\n%s", a, b)
	}
	distinct := strings.Replace(implicit, `"seed": 5`, `"seed": 6`, 1)
	c, _, err := svc.NormalizeJobRequest([]byte(distinct))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("distinct seeds share a canonical request")
	}
}

// TestJobSubmitValidation: a bad job body is rejected at submission
// (400 with the error envelope), never enqueued.
func TestJobSubmitValidation(t *testing.T) {
	_, mgr, ts := newJobsServer(t, 1)
	for _, body := range []string{
		`{"protocols": ["Quadruple"], "runs": 2}`,
		`{"runz": 2}`,
		`{"scenario": {"backend": "quantum"}, "runs": 2}`,
		`not json`,
		// Only whitespace may follow the document.
		`{"runs": 2}{"runs": -5}`,
		`{"runs": 2} garbage`,
	} {
		resp := post(t, ts.URL+"/v1/jobs", body, nil)
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, resp.StatusCode, got)
		}
	}
	if n := len(mgr.List()); n != 0 {
		t.Errorf("%d jobs enqueued from invalid submissions", n)
	}
	// Unknown job ids are 404s on every per-job route.
	for _, path := range []string{"/v1/jobs/job-00", "/v1/jobs/job-00/results"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestJobsDisabled: without an attached manager the job routes exist
// but shed every request with a retryable 503 — the same surface an HA
// standby serves until promotion attaches a manager mid-flight.
func TestJobsDisabled(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/v1/jobs", sweepBody, nil)
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("jobs route without a manager: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("manager-less 503 carries no Retry-After")
	}
	for _, path := range []string{"/v1/jobs", "/v1/jobs/job-00", "/v1/jobs/job-00/results"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s without a manager: status %d, want 503", path, resp.StatusCode)
		}
	}
}

// cancellingWriter is an http.ResponseWriter that cancels the request
// context after the first body write — the observable shape of a
// client that disconnects mid-stream while the transport still accepts
// writes (so the terminal record, if any, is capturable).
type cancellingWriter struct {
	header http.Header
	buf    bytes.Buffer
	cancel context.CancelFunc
	wrote  bool
}

func (w *cancellingWriter) Header() http.Header { return w.header }
func (w *cancellingWriter) WriteHeader(int)     {}
func (w *cancellingWriter) Flush()              {}
func (w *cancellingWriter) Write(p []byte) (int, error) {
	n, err := w.buf.Write(p)
	if !w.wrote {
		w.wrote = true
		w.cancel()
	}
	return n, err
}

// TestStreamSweepDisconnectEmitsTerminalRecord pins the streaming
// contract: when the request context dies mid-sweep, the stream is
// terminated promptly — remaining grid points are not simulated — and
// ends with a flushed {"error": ...} NDJSON record rather than a
// silent truncation.
func TestStreamSweepDisconnectEmitsTerminalRecord(t *testing.T) {
	svc := NewService(Options{Workers: 1})
	handler := NewServer(svc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(sweepBody))
	req.Header.Set("Accept", NDJSONContentType)
	req = req.WithContext(ctx)
	w := &cancellingWriter{header: make(http.Header), cancel: cancel}
	handler.ServeHTTP(w, req)

	lines := bytes.Split(bytes.TrimSuffix(w.buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want at least one item plus the terminal record:\n%s",
			len(lines), w.buf.Bytes())
	}
	var item SweepItem
	if err := json.Unmarshal(lines[0], &item); err != nil {
		t.Errorf("first line is not an item: %v", err)
	}
	var e errorResponse
	if err := json.Unmarshal(lines[len(lines)-1], &e); err != nil || e.Error == "" {
		t.Errorf("last line %q is not the terminal error record (%v)", lines[len(lines)-1], err)
	}
	if n := svc.SimPoints(); n > 4 {
		t.Errorf("disconnected sweep still simulated %d of 8 points", n)
	}
	if len(lines)-1 >= 8 {
		t.Errorf("disconnected stream delivered the whole grid (%d items)", len(lines)-1)
	}
}

// TestSyncAndJobPathsShareThePool: a synchronous sweep issued while a
// job is executing still completes (the shared pool serves both), and
// both paths resolve identical physical points to identical items via
// the shared cache.
func TestSyncAndJobPathsShareThePool(t *testing.T) {
	svc, mgr, ts := newJobsServer(t, 2)
	resp := post(t, ts.URL+"/v1/jobs", sweepBody, nil)
	var meta jobs.Meta
	if err := json.Unmarshal(readBody(t, resp), &meta); err != nil {
		t.Fatal(err)
	}
	// Interactive sweep of the same grid, racing the job.
	second := post(t, ts.URL+"/v1/sweep", sweepBody, nil)
	secondBody := readBody(t, second)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("sync sweep during job: %d %s", second.StatusCode, secondBody)
	}
	if _, err := mgr.Wait(testCtx(t), meta.ID); err != nil {
		t.Fatal(err)
	}
	want := ndjsonSweep(t, svc, sweepBody)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + meta.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if results := readBody(t, resp); !bytes.Equal(results, want) {
		t.Errorf("job results diverge from the sync path under contention:\n%s\nwant:\n%s",
			results, want)
	}
	var buffered sweepResponse
	if err := json.Unmarshal(secondBody, &buffered); err != nil {
		t.Fatal(err)
	}
	if len(buffered.Items) != 8 {
		t.Errorf("sync sweep returned %d items", len(buffered.Items))
	}
}

// TestWriteJobErrorStatuses: the retryable refusals — a saturated queue
// and a delete refused while the job's lease is held — are 503s with a
// Retry-After; a wrapped error maps like the sentinel it wraps.
func TestWriteJobErrorStatuses(t *testing.T) {
	cases := []struct {
		err        error
		status     int
		retryAfter string
	}{
		{jobs.ErrNotFound, http.StatusNotFound, ""},
		{fmt.Errorf("%w: disk full", jobs.ErrStorage), http.StatusInternalServerError, ""},
		{jobs.ErrQueueFull, http.StatusServiceUnavailable, "5"},
		{jobs.ErrLeaseHeld, http.StatusServiceUnavailable, "1"},
		{errors.New("bad request"), http.StatusBadRequest, ""},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeJobError(rec, c.err)
		if rec.Code != c.status || rec.Header().Get("Retry-After") != c.retryAfter {
			t.Errorf("%v: status %d, Retry-After %q; want %d, %q",
				c.err, rec.Code, rec.Header().Get("Retry-After"), c.status, c.retryAfter)
		}
	}
}
