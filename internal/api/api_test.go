package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// -update regenerates the golden response files.
var update = flag.Bool("update", false, "rewrite testdata golden files")

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(Options{})
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

// post sends a JSON request and returns the response.
func post(t *testing.T, url, body string, header http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden compares got against testdata/<name>, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/api -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// The golden requests pin down the full JSON wire format of each
// endpoint for one representative point: Base scenario at M = 2 h,
// φ/R = 0.25.
const goldenScenario = `"scenario": {"name": "Base", "mtbf": 7200}`

func TestGoldenWaste(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{` + goldenScenario + `, "protocol": "DoubleNBL", "phiFrac": 0.25, "tbase": 100000}`
	resp := post(t, ts.URL+"/v1/waste", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	checkGolden(t, "waste.golden.json", readBody(t, resp))
}

func TestGoldenOptimum(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{` + goldenScenario + `, "protocol": "Triple", "phiFrac": 0.25}`
	resp := post(t, ts.URL+"/v1/optimum", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	checkGolden(t, "optimum.golden.json", readBody(t, resp))
}

func TestGoldenRisk(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{` + goldenScenario + `, "protocol": "DoubleBoF", "phiFrac": 0.25, "life": 86400}`
	resp := post(t, ts.URL+"/v1/risk", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	checkGolden(t, "risk.golden.json", readBody(t, resp))
}

func TestGoldenSweep(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/v1/sweep", sweepBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	checkGolden(t, "sweep.golden.json", readBody(t, resp))
}

func TestWasteMatchesModel(t *testing.T) {
	svc := NewService(Options{})
	resp, err := svc.Waste(PointRequest{
		Scenario: specBase(7200),
		Protocol: "DoubleNBL",
		PhiFrac:  0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Feasible {
		t.Fatal("Base at 2h MTBF must be feasible")
	}
	if resp.Waste <= 0 || resp.Waste >= 1 {
		t.Errorf("waste = %v, want in (0, 1)", resp.Waste)
	}
	if resp.Phases.Ckpt1 != 2 {
		t.Errorf("double protocol Ckpt1 = %v, want δ = 2", resp.Phases.Ckpt1)
	}
	total := resp.Phases.Ckpt1 + resp.Phases.Ckpt2 + resp.Phases.Compute
	if diff := math.Abs(total - resp.Period); diff > 1e-9 {
		t.Errorf("phases sum to %v, period is %v", total, resp.Period)
	}
}

func TestOptimumClosedFormAgreesWithNumeric(t *testing.T) {
	svc := NewService(Options{})
	for _, protocol := range []string{"DoubleBlocking", "DoubleNBL", "DoubleBoF", "Triple", "TripleBoF"} {
		resp, err := svc.Optimum(PointRequest{
			Scenario: specBase(7200),
			Protocol: protocol,
			PhiFrac:  0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The closed form is a first-order approximation; the paper's
		// own cross-check tolerates percent-level gaps.
		if resp.PeriodGap > 0.05 {
			t.Errorf("%s: closed form %v vs numeric %v (gap %v)",
				protocol, resp.Period, resp.NumericPeriod, resp.PeriodGap)
		}
		if resp.NumericWaste > resp.Waste+1e-9 {
			t.Errorf("%s: numeric waste %v exceeds closed-form waste %v",
				protocol, resp.NumericWaste, resp.Waste)
		}
	}
}

func TestRiskTripleBeatsDouble(t *testing.T) {
	svc := NewService(Options{})
	get := func(protocol string) RiskResponse {
		resp, err := svc.Risk(PointRequest{
			Scenario: specBase(3600),
			Protocol: protocol,
			PhiFrac:  0.25,
			Life:     30 * 86400,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	double, triple := get("DoubleNBL"), get("Triple")
	if triple.SuccessProb <= double.SuccessProb {
		t.Errorf("triple success %v must exceed double %v (the paper's §V.C conclusion)",
			triple.SuccessProb, double.SuccessProb)
	}
	if double.BaseSuccessProb >= double.SuccessProb {
		t.Errorf("no-checkpoint baseline %v must be worse than the protocol %v",
			double.BaseSuccessProb, double.SuccessProb)
	}
}

// TestRiskInfiniteRunsTolerated pins the zero-fatal-probability edge:
// the runs-tolerated count is infinite, which JSON cannot carry, so
// the field is omitted and the endpoint still answers 200 with a full
// body (not the empty 200 a failed Encode would produce).
func TestRiskInfiniteRunsTolerated(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/v1/risk",
		`{"protocol": "Triple", "phiFrac": 0.5, "life": 1}`, nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if len(body) == 0 {
		t.Fatal("empty body")
	}
	var r RiskResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad body %s: %v", body, err)
	}
	if r.RunsTolerated != nil {
		t.Errorf("runsTolerated = %v, want omitted for zero fatal probability", *r.RunsTolerated)
	}
	if r.SuccessProb != 1 {
		t.Errorf("successProb = %v, want 1 over a 1s horizon", r.SuccessProb)
	}
}

func TestHandlerErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, path, body string
		method           string
		wantStatus       int
	}{
		{"bad protocol", "/v1/waste", `{"protocol": "Quadruple", "phiFrac": 0}`, http.MethodPost, http.StatusBadRequest},
		{"unknown field", "/v1/waste", `{"protocol": "DoubleNBL", "phiFrak": 0.5}`, http.MethodPost, http.StatusBadRequest},
		{"unknown nested scenario field", "/v1/waste", `{"scenario": {"mtfb": 1800}, "protocol": "DoubleNBL"}`, http.MethodPost, http.StatusBadRequest},
		{"bad scenario name", "/v1/risk", `{"scenario": {"name": "Peta"}, "protocol": "DoubleNBL", "life": 1}`, http.MethodPost, http.StatusBadRequest},
		{"risk needs horizon", "/v1/risk", `{"protocol": "DoubleNBL"}`, http.MethodPost, http.StatusBadRequest},
		{"phiFrac range", "/v1/optimum", `{"protocol": "DoubleNBL", "phiFrac": 1.5}`, http.MethodPost, http.StatusBadRequest},
		{"get not allowed", "/v1/sweep", ``, http.MethodGet, http.StatusMethodNotAllowed},
		{"grid too large", "/v1/sweep", `{"phiFracs": [0.1], "mtbfs": [` + bigMTBFList + `]}`, http.MethodPost, http.StatusBadRequest},
		{"runs cap", "/v1/sweep", `{"runs": 100000}`, http.MethodPost, http.StatusBadRequest},
		// Strict decoding: a typo'd backend selector must be a 400, not a
		// silently ignored default that sweeps the wrong engine.
		{"typo'd backend field", "/v1/sweep", `{"scenario": {"backned": "detailed"}, "runs": 2}`, http.MethodPost, http.StatusBadRequest},
		{"typo'd nested global field", "/v1/sweep", `{"scenario": {"backend": "multilevel", "global": {"gee": 200}}, "runs": 2}`, http.MethodPost, http.StatusBadRequest},
		{"unknown backend value", "/v1/sweep", `{"scenario": {"backend": "quantum"}, "runs": 2}`, http.MethodPost, http.StatusBadRequest},
		{"unknown backend axis value", "/v1/sweep", `{"backends": ["fast", "quantum"], "runs": 2}`, http.MethodPost, http.StatusBadRequest},
		{"unknown law", "/v1/sweep", `{"scenario": {"law": "gaussian", "shape": 1}, "runs": 2}`, http.MethodPost, http.StatusBadRequest},
		{"weibull without shape", "/v1/sweep", `{"scenario": {"law": "weibull"}, "runs": 2}`, http.MethodPost, http.StatusBadRequest},
		{"multilevel without global", "/v1/sweep", `{"scenario": {"backend": "multilevel"}, "runs": 2}`, http.MethodPost, http.StatusBadRequest},
		// Only whitespace may follow the document: a second document or
		// trailing garbage is a 400, not silently ignored.
		{"second sweep document", "/v1/sweep", `{"runs": 2}{"runs": -5}`, http.MethodPost, http.StatusBadRequest},
		{"trailing sweep garbage", "/v1/sweep", `{"runs": 2} garbage`, http.MethodPost, http.StatusBadRequest},
		{"trailing sweep brace", "/v1/sweep", `{"runs": 2}}`, http.MethodPost, http.StatusBadRequest},
		{"second waste document", "/v1/waste", `{"protocol": "DoubleNBL"}{"protocol": "Quadruple"}`, http.MethodPost, http.StatusBadRequest},
		{"trailing waste garbage", "/v1/waste", `{"protocol": "DoubleNBL"} garbage`, http.MethodPost, http.StatusBadRequest},
		{"trailing optimum garbage", "/v1/optimum", `{"protocol": "DoubleNBL", "phiFrac": 0.5} x`, http.MethodPost, http.StatusBadRequest},
		{"second risk document", "/v1/risk", `{"protocol": "DoubleNBL", "life": 1}{}`, http.MethodPost, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := readBody(t, resp)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not an {\"error\": ...} envelope", body)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.Unmarshal(readBody(t, resp), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK {
		t.Error("healthz not ok")
	}
}

// bigMTBFList expands to more grid points than the default 4096 limit.
var bigMTBFList = func() string {
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("3600")
	}
	return b.String()
}()

// specBase returns a Base-scenario spec with the given MTBF override.
func specBase(mtbf float64) scenario.Spec {
	return scenario.Spec{Name: "Base", MTBF: &mtbf}
}

// TestSweepBackendKnobsGateUpFront pins the point-independent knob
// validation: a bad global level or substrate shape is a 400 before
// any grid work, like the protocol and law axes — never a mid-stream
// abort halfway through a multi-backend sweep.
func TestSweepBackendKnobsGateUpFront(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []string{
		`{"backends": ["fast", "multilevel"], "scenario": {"global": {"g": -5}}, "runs": 2}`,
		`{"scenario": {"backend": "multilevel", "global": {"g": 200, "rg": -1}}, "runs": 2}`,
		`{"scenario": {"backend": "multilevel", "global": {"g": 200, "k": -2}}, "runs": 2}`,
		`{"scenario": {"backend": "detailed", "n": 96, "spares": -3}, "runs": 2}`,
		`{"scenario": {"backend": "detailed", "n": 96, "imageBytes": -1}, "runs": 2}`,
	}
	for _, body := range cases {
		resp := post(t, ts.URL+"/v1/sweep", body, nil)
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, resp.StatusCode, got)
		}
	}
}
