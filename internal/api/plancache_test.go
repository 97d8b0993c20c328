package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestPlanCacheBounded: a repeated body is served from the cache, the
// cache never holds more than planCacheSize plans, an entry untouched
// by newer bodies is evicted, and a body that fails to plan is never
// cached.
func TestPlanCacheBounded(t *testing.T) {
	svc := NewService(Options{})
	body := func(seed int) []byte { return []byte(fmt.Sprintf(`{"runs": 2, "seed": %d}`, seed)) }
	first, err := svc.planBody(body(0))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := svc.planBody(body(0)); again != first {
		t.Fatal("a repeated body was planned again")
	}
	for seed := 1; seed < 3*planCacheSize; seed++ {
		if _, err := svc.planBody(body(seed)); err != nil {
			t.Fatal(err)
		}
		if n := svc.plans.len(); n > planCacheSize {
			t.Fatalf("%d plans cached, bound is %d", n, planCacheSize)
		}
	}
	if again, _ := svc.planBody(body(0)); again == first {
		t.Error("the oldest plan survived 3× the cache size of newer bodies")
	}
	if _, err := svc.planBody([]byte(`{"runs": -1}`)); err == nil {
		t.Fatal("runs = -1 planned")
	}
	if _, ok := svc.plans.get(sha256.Sum256([]byte(`{"runs": -1}`))); ok {
		t.Error("a failed plan was cached")
	}
}

// TestPlanCacheTraceRebind: re-registering a trace name between two
// identical requests must not serve the first trace's plan — the
// second response equals a fresh service's with only the new trace.
func TestPlanCacheTraceRebind(t *testing.T) {
	req := corrSweepRequest()
	req.Backends = []string{"detailed"}
	req.Scenario.Trace = "cronos"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(ts *httptest.Server) []byte {
		t.Helper()
		resp := post(t, ts.URL+"/v1/sweep", string(body), nil)
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		return got
	}
	oldTrace, newTrace := testTrace(96, 3600, 1e6), testTrace(96, 7200, 1e6)

	svc, ts := newTestServer(t)
	if _, err := svc.RegisterTrace("cronos", oldTrace); err != nil {
		t.Fatal(err)
	}
	before := sweep(ts)
	if _, err := svc.RegisterTrace("cronos", newTrace); err != nil {
		t.Fatal(err)
	}
	after := sweep(ts)

	fresh, freshTS := newTestServer(t)
	if _, err := fresh.RegisterTrace("cronos", newTrace); err != nil {
		t.Fatal(err)
	}
	if want := sweep(freshTS); !bytes.Equal(after, want) {
		t.Errorf("sweep after re-registration differs from a fresh service's:\n%s\n%s", after, want)
	}
	if bytes.Equal(before, after) {
		t.Error("re-registering the trace left the response unchanged")
	}
}

// TestPlanCacheConcurrentRangedDispatches sends every range of one
// body concurrently — the fabric worker's traffic, all hitting one
// shared plan — and checks each range against the same slice of the
// full-grid stream. Under -race it is the shared plan's concurrency
// check.
func TestPlanCacheConcurrentRangedDispatches(t *testing.T) {
	const body = `{"protocols": ["DoubleNBL", "Triple"], "phiFracs": [0, 0.5], "mtbfs": [1800, 3600, 7200], "tbase": 10000, "runs": 2, "seed": 3}`
	ndjson := http.Header{"Accept": []string{NDJSONContentType}}
	_, ref := newTestServer(t)
	want := bytes.SplitAfter(readBody(t, post(t, ref.URL+"/v1/sweep", body, ndjson)), []byte("\n"))
	want = want[:len(want)-1] // the empty tail after the last newline
	if len(want) != 12 {
		t.Fatalf("reference stream has %d lines, want 12", len(want))
	}

	_, ts := newTestServer(t)
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for off := 0; off < len(want); off++ {
			for _, limit := range []int{1, 2, 5} {
				wg.Add(1)
				go func(off, limit int) {
					defer wg.Done()
					url := fmt.Sprintf("%s/v1/sweep?offset=%d&limit=%d", ts.URL, off, limit)
					req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
					if err != nil {
						t.Error(err)
						return
					}
					req.Header = ndjson
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if exp := bytes.Join(want[off:min(off+limit, len(want))], nil); !bytes.Equal(got, exp) {
						t.Errorf("range [%d, +%d):\n got %s\nwant %s", off, limit, got, exp)
					}
				}(off, limit)
			}
		}
	}
	wg.Wait()
}
