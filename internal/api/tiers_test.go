package api_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/fabric"
)

// tiers are the two servers of /v1/sweep: one node over the given
// service, and a coordinator dispatching to that service as its only
// worker. Both mount api.SweepHandler; they differ in its source.
var tiers = []struct {
	name  string
	serve func(t *testing.T, svc *api.Service) http.Handler
}{
	{"node", func(t *testing.T, svc *api.Service) http.Handler { return api.NewServer(svc) }},
	{"coordinator", func(t *testing.T, svc *api.Service) http.Handler {
		worker := httptest.NewServer(api.NewServer(svc))
		t.Cleanup(worker.Close)
		local := api.NewService(api.Options{})
		coord, err := fabric.New(fabric.Config{Service: local, Workers: []string{worker.URL}})
		if err != nil {
			t.Fatal(err)
		}
		return coord.Handler(api.NewServer(local))
	}},
}

// TestStreamSweepFlushesBeforeStall: with the second point gated on the
// evaluating node, the first line reaches the client before the gate
// opens — on a node, which flushes whenever its next point is not
// ready, and through a coordinator, which flushes whatever the merger
// has drained before it waits on the worker again.
func TestStreamSweepFlushesBeforeStall(t *testing.T) {
	const body = `{"protocols": ["DoubleNBL"], "phiFracs": [0.5], "mtbfs": [1800, 3600], "tbase": 10000, "runs": 2}`
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			svc := api.NewService(api.Options{})
			open, err := api.GatePoint(svc, body, 1)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(tier.serve(t, svc))
			t.Cleanup(ts.Close)
			t.Cleanup(open) // runs first: no server closes on a gated handler

			// The request runs on its own goroutine: without a flush,
			// even the response headers would wait for the gate.
			lines := make(chan []byte)
			go func() {
				defer close(lines)
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Accept", api.NDJSONContentType)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				br := bufio.NewReader(resp.Body)
				for {
					line, err := br.ReadBytes('\n')
					if err != nil {
						return
					}
					lines <- line
				}
			}()
			select {
			case line := <-lines:
				var item api.SweepItem
				if err := json.Unmarshal(line, &item); err != nil || item.MTBF != 1800 {
					t.Fatalf("first line %q is not the first point (%v)", line, err)
				}
			case <-time.After(5 * time.Second):
				open()
				for range lines {
				}
				t.Fatal("the first line did not reach the client while the second point was gated")
			}
			open()
			var rest []api.SweepItem
			for line := range lines {
				var item api.SweepItem
				if err := json.Unmarshal(line, &item); err != nil {
					t.Fatalf("bad line %q: %v", line, err)
				}
				rest = append(rest, item)
			}
			if len(rest) != 1 || rest[0].MTBF != 3600 || rest[0].Protocol != "DoubleNBL" {
				t.Errorf("after the gate opened got %+v, want the 3600 s point", rest)
			}
		})
	}
}

// TestSweepPointsCountsRange: on both tiers X-Sweep-Points is the size
// of the requested range — the whole 25-point grid, or 7 for
// ?offset=5&limit=7 — as a header on the buffered response and a
// trailer on the stream. Only a node, which evaluated the points,
// reports cache counts; a coordinator sends none. The buffered body is
// exactly what MarshalIndent makes of its decoded items.
func TestSweepPointsCountsRange(t *testing.T) {
	const body = `{"scenario":{"mtbf":1800},"tbase":10000,"runs":2,"seed":7}`
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			ts := httptest.NewServer(tier.serve(t, api.NewService(api.Options{})))
			t.Cleanup(ts.Close)
			for _, tc := range []struct {
				query  string
				points int
			}{{"", 25}, {"?offset=5&limit=7", 7}, {"?offset=20&limit=0", 0}} {
				for _, accept := range []string{"", api.NDJSONContentType} {
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep"+tc.query, strings.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					req.Header.Set("Accept", accept)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("%q %q: status %d, %v: %s", tc.query, accept, resp.StatusCode, err, got)
					}
					stats := resp.Header
					if accept == api.NDJSONContentType {
						stats = resp.Trailer
						if n := bytes.Count(got, []byte("\n")); n != tc.points {
							t.Errorf("%q: streamed %d lines, want %d", tc.query, n, tc.points)
						}
					} else {
						var out struct {
							Items []api.SweepItem `json:"items"`
						}
						if err := json.Unmarshal(got, &out); err != nil {
							t.Fatal(err)
						}
						want, _ := json.MarshalIndent(out, "", "  ")
						if !bytes.Equal(got, append(want, '\n')) {
							t.Errorf("%q: buffered body is not MarshalIndent of its items:\n%s", tc.query, got)
						}
					}
					if p := stats.Get(api.HeaderSweepPoints); p != strconv.Itoa(tc.points) {
						t.Errorf("%q %q: %s = %q, want %d", tc.query, accept, api.HeaderSweepPoints, p, tc.points)
					}
					for _, h := range []string{api.HeaderSweepHits, api.HeaderSweepMisses} {
						_, inHeader := resp.Header[h]
						_, inTrailer := resp.Trailer[h]
						if announced := inHeader || inTrailer; announced != (tier.name == "node") {
							t.Errorf("%q %q: %s announced = %v on the %s", tc.query, accept, h, announced, tier.name)
						}
					}
				}
			}
		})
	}
}

// TestSweepRangeErrorsMatchAcrossTiers: a bad /v1/sweep range is a 400
// with one message whatever the tier, since both check it through the
// same plan.
func TestSweepRangeErrorsMatchAcrossTiers(t *testing.T) {
	const body = `{"protocols": ["DoubleNBL", "Triple"], "phiFracs": [0.25, 0.75], "mtbfs": [3600, 7200], "tbase": 10000, "runs": 2}`
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			ts := httptest.NewServer(tier.serve(t, api.NewService(api.Options{})))
			t.Cleanup(ts.Close)
			for _, tc := range []struct{ query, want string }{
				{"?offset=99", "api: offset 99 outside the 8-point grid"},
				{"?offset=9&limit=1", "api: offset 9 outside the 8-point grid"},
				{"?offset=-1", `api: offset "-1" must be a non-negative integer`},
			} {
				resp, err := http.Post(ts.URL+"/v1/sweep"+tc.query, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Error string `json:"error"`
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusBadRequest || got.Error != tc.want {
					t.Errorf("%s: status %d, error %q (%v); want 400 %q", tc.query, resp.StatusCode, got.Error, err, tc.want)
				}
			}
		})
	}
}
