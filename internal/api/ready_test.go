package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
)

// readyBody decodes one /readyz response.
type readyBody struct {
	Ready    bool        `json:"ready"`
	Degraded bool        `json:"degraded"`
	Jobs     *jobs.Stats `json:"jobs"`
}

func getReady(t *testing.T, ts *httptest.Server) (int, readyBody) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body readyBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestReadyWithoutJobs: a bare service is ready, never degraded, and
// reports no job stats.
func TestReadyWithoutJobs(t *testing.T) {
	ts := httptest.NewServer(NewServer(NewService(Options{})))
	defer ts.Close()
	status, body := getReady(t, ts)
	if status != http.StatusOK || !body.Ready || body.Degraded || body.Jobs != nil {
		t.Fatalf("bare /readyz: status %d, body %+v", status, body)
	}
}

// TestReadyReportsSaturationAndShedsSubmissions drives the whole
// load-shedding surface: a saturated job queue turns /readyz degraded
// (while /healthz stays plain ok), new submissions bounce with 503 +
// Retry-After, deduped resubmissions still pass, and draining the
// queue clears the degradation.
func TestReadyReportsSaturationAndShedsSubmissions(t *testing.T) {
	svc := NewService(Options{})
	gate := make(chan struct{})
	real := svc.JobExecutor()
	mgr, err := jobs.NewManager(jobs.Config{
		Dir:           t.TempDir(),
		MaxConcurrent: 1,
		MaxQueued:     1,
		Normalize:     svc.NormalizeJobRequest,
		Exec: func(ctx context.Context, request []byte, offset int, start func(int) error, emit func([]byte) error) error {
			select {
			case <-gate:
			case <-ctx.Done():
				return ctx.Err()
			}
			return real(ctx, request, offset, start, emit)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	svc.AttachJobs(mgr)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	defer close(gate)

	submit := func(seed int) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"scenario": {"mtbf": 1800}, "tbase": 1000, "runs": 1, "seed": %d}`, seed)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Job 1 occupies the single runner (blocked at the gate), job 2
	// fills the queue. Job 2 is submitted only once job 1 has left the
	// queue: submitted while job 1 still waits there, it would find
	// the queue full and be shed.
	waitStats := func(running, queued int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st := mgr.Stats(); st.Running == running && st.Queued == queued {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue never reached %d running, %d queued: %+v", running, queued, mgr.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit(1).Body.Close()
	waitStats(1, 0)
	submit(2).Body.Close()
	waitStats(1, 1)

	// Saturated: /readyz is degraded-but-ready, /healthz is plain ok.
	status, body := getReady(t, ts)
	if status != http.StatusOK || !body.Ready || !body.Degraded {
		t.Fatalf("saturated /readyz: status %d, body %+v", status, body)
	}
	if body.Jobs == nil || !body.Jobs.Saturated || body.Jobs.Queued != 1 {
		t.Fatalf("saturated /readyz job stats: %+v", body.Jobs)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !health.OK {
		t.Fatalf("/healthz under saturation: status %d, ok %v", hresp.StatusCode, health.OK)
	}

	// A NEW submission is shed with 503 + Retry-After...
	resp := submit(3)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission over the bound: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After")
	}
	var shed struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil || shed.Error == "" {
		t.Fatalf("503 body: %+v, %v", shed, err)
	}
	// ...but resubmitting the queued job dedupes straight through.
	dup := submit(2)
	dup.Body.Close()
	if dup.StatusCode != http.StatusOK {
		t.Fatalf("dedupe under saturation: status %d, want 200", dup.StatusCode)
	}

	// Draining the queue clears the degradation.
	gate <- struct{}{}
	gate <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := getReady(t, ts)
		if !body.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz still degraded after the queue drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
