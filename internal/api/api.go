// Package api is the transport-agnostic evaluation service over the
// paper's model: it turns JSON requests into calls on internal/core
// (closed-form waste and risk), internal/optimize (numeric period
// cross-check) and internal/sim (Monte-Carlo sweeps), and returns
// plain response structs that any transport can encode. cmd/serve
// mounts it behind HTTP via NewServer.
//
// The request lifecycle, the sweep engine's worker layout and the
// cache-key canonicalization are documented in DESIGN.md, "API request
// lifecycle". All responses are deterministic: for a fixed request
// (including its seed) the encoded bytes are identical across calls,
// worker counts and processes, which is what makes the sweep cache
// sound.
package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/jobs"
	"repro/internal/optimize"
	"repro/internal/scenario"
)

// Options configures a Service. The zero value selects sensible
// defaults for every field.
type Options struct {
	// CacheSize bounds the sweep-point LRU cache (default 4096
	// entries, <= -1 disables caching).
	CacheSize int
	// Workers bounds the sweep engine's concurrent grid-point
	// evaluations, shared across all in-flight requests (default
	// GOMAXPROCS).
	Workers int
	// MaxGridPoints rejects sweep requests whose expanded grid exceeds
	// this size (default 4096).
	MaxGridPoints int
	// MaxRuns caps the Monte-Carlo runs per sweep point (default 256).
	MaxRuns int
}

// Service evaluates model and simulation queries. It is safe for
// concurrent use; the only mutable state is the sweep cache and the
// simulation counter.
type Service struct {
	cache *Cache
	// batches reuses compiled simulation batches across grid rows and
	// requests that resolve to the same physical configuration (see
	// compiledBatch).
	batches *lru[string, engine.Batch]
	// plans caches validated /v1/sweep plans by the sha256 of the
	// request body, so the ranged dispatches of one fabric sweep plan it
	// once per worker (see planBody).
	plans         *lru[[sha256.Size]byte, *sweepPlan]
	maxGridPoints int
	maxRuns       int
	// pool bounds concurrent sweep-point evaluations SERVICE-wide and
	// priority-aware: N simultaneous sweeps — synchronous requests and
	// background jobs alike — share the Workers budget instead of each
	// claiming the whole machine, and interactive waiters are admitted
	// before queued job points.
	pool *jobs.Pool
	// jobs holds the optional durable job manager behind /v1/jobs (nil
	// until AttachJobs). It is an atomic pointer because HA promotion
	// attaches a manager to a long-running standby's service — and a
	// fenced leader detaches its closing one — while request handlers
	// race the swap.
	jobs atomic.Pointer[jobs.Manager]
	// simPoints counts sweep points actually simulated (cache misses);
	// tests and the /healthz endpoint use it to prove cache hits skip
	// the simulator.
	simPoints atomic.Uint64
	// traces holds the server-registered failure traces a sweep's
	// scenario.trace field may name. Registration is content-addressed:
	// each trace carries an id of the form name@digest (a sha256 prefix
	// of its canonical JSON), and the id — never the bare name — enters
	// the point keys, so re-registering a different log under an old
	// name can never alias a cached result.
	tracesMu sync.RWMutex
	traces   map[string]registeredTrace
}

// registeredTrace is one named failure trace plus its content id.
type registeredTrace struct {
	tr *failure.Trace
	id string
}

// NewService returns a Service with the given options.
func NewService(opt Options) *Service {
	if opt.CacheSize == 0 {
		opt.CacheSize = 4096
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.MaxGridPoints <= 0 {
		opt.MaxGridPoints = 4096
	}
	if opt.MaxRuns <= 0 {
		opt.MaxRuns = 256
	}
	return &Service{
		cache:         NewCache(opt.CacheSize),
		batches:       newLRU[string, engine.Batch](opt.MaxGridPoints),
		plans:         newLRU[[sha256.Size]byte, *sweepPlan](planCacheSize),
		maxGridPoints: opt.MaxGridPoints,
		maxRuns:       opt.MaxRuns,
		pool:          jobs.NewPool(opt.Workers),
	}
}

// AttachJobs wires the durable job manager into the service's /v1/jobs
// endpoints (mounted by NewServer; they answer 503 until a manager is
// attached). The manager must have been built with this service's
// JobExecutor and NormalizeJobRequest, so both the synchronous and the
// job path run through one execution engine. Safe to call on a live
// server — a promoted standby attaches its manager mid-flight.
func (s *Service) AttachJobs(mgr *jobs.Manager) { s.jobs.Store(mgr) }

// DetachJobs unwires the job manager: a fenced ex-leader detaches its
// closing manager so /v1/jobs requests answer 503 (retryable against
// the new leader) instead of racing a shutdown.
func (s *Service) DetachJobs() { s.jobs.Store(nil) }

// Jobs returns the attached job manager (nil when jobs are disabled or
// the node is an unpromoted standby).
func (s *Service) Jobs() *jobs.Manager { return s.jobs.Load() }

// RegisterTrace validates tr and registers it under name for replay
// through the sweep's scenario.trace axis. The returned id is
// name@digest, where digest is a sha256 prefix of the trace's
// canonical JSON encoding; it keys every sweep point that replays the
// trace, so results stay content-addressed even if the name is later
// rebound. Registering an existing name replaces it.
func (s *Service) RegisterTrace(name string, tr *failure.Trace) (string, error) {
	if name == "" {
		return "", errors.New("api: trace name must be non-empty")
	}
	if err := tr.Validate(); err != nil {
		return "", fmt.Errorf("api: trace %q: %w", name, err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		return "", fmt.Errorf("api: trace %q: %w", name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	id := name + "@" + hex.EncodeToString(sum[:6])
	s.tracesMu.Lock()
	defer s.tracesMu.Unlock()
	if s.traces == nil {
		s.traces = make(map[string]registeredTrace)
	}
	s.traces[name] = registeredTrace{tr: tr, id: id}
	return id, nil
}

// LookupTrace returns the trace registered under name and its content
// id, or ok=false when no such trace exists.
func (s *Service) LookupTrace(name string) (*failure.Trace, string, bool) {
	s.tracesMu.RLock()
	defer s.tracesMu.RUnlock()
	rt, ok := s.traces[name]
	return rt.tr, rt.id, ok
}

// TraceIDs lists the registered traces as their content ids
// (name@digest), sorted by name, for diagnostics endpoints.
func (s *Service) TraceIDs() []string {
	s.tracesMu.RLock()
	defer s.tracesMu.RUnlock()
	ids := make([]string, 0, len(s.traces))
	for _, rt := range s.traces {
		ids = append(ids, rt.id)
	}
	sort.Strings(ids)
	return ids
}

// Cache returns the sweep-point cache (for stats reporting).
func (s *Service) Cache() *Cache { return s.cache }

// SimPoints returns how many sweep points have been simulated (cache
// misses) since the service started.
func (s *Service) SimPoints() uint64 { return s.simPoints.Load() }

// PointRequest is the JSON request shared by the closed-form
// endpoints: a platform spec, a protocol, and the model coordinates.
type PointRequest struct {
	// Scenario describes the platform (Table I row plus overrides).
	Scenario scenario.Spec `json:"scenario"`
	// Protocol is the figure name: DoubleBlocking, DoubleNBL,
	// DoubleBoF, Triple or TripleBoF.
	Protocol string `json:"protocol"`
	// PhiFrac is the overhead point φ/R in [0, 1].
	PhiFrac float64 `json:"phiFrac"`
	// Period is the checkpointing period in seconds; 0 selects the
	// model-optimal period (Eq. 9/10/15).
	Period float64 `json:"period,omitempty"`
	// Tbase is the failure-free application duration, used by /v1/waste
	// for the expected-runtime projection (Eq. 3). 0 omits it.
	Tbase float64 `json:"tbase,omitempty"`
	// Life is the horizon t of the success probability (Eq. 11/16),
	// used by /v1/risk. 0 falls back to Tbase.
	Life float64 `json:"life,omitempty"`
}

// resolve validates the request and returns the model coordinates.
func (r *PointRequest) resolve() (core.Protocol, core.Params, float64, error) {
	pr, err := core.ParseProtocol(r.Protocol)
	if err != nil {
		return 0, core.Params{}, 0, err
	}
	p, err := r.Scenario.Resolve()
	if err != nil {
		return 0, core.Params{}, 0, err
	}
	if r.PhiFrac < 0 || r.PhiFrac > 1 {
		return 0, core.Params{}, 0, fmt.Errorf("api: phiFrac = %v must be in [0, 1]", r.PhiFrac)
	}
	if r.Period < 0 {
		return 0, core.Params{}, 0, fmt.Errorf("api: period = %v must be >= 0", r.Period)
	}
	return pr, p, r.PhiFrac * p.R, nil
}

// ParamsJSON is the resolved platform echoed in every response, so a
// client sees exactly which Table I row plus overrides was evaluated.
type ParamsJSON struct {
	D     float64 `json:"d"`
	Delta float64 `json:"delta"`
	R     float64 `json:"r"`
	Alpha float64 `json:"alpha"`
	N     int     `json:"n"`
	MTBF  float64 `json:"mtbf"`
}

func paramsJSON(p core.Params) ParamsJSON {
	return ParamsJSON{D: p.D, Delta: p.Delta, R: p.R, Alpha: p.Alpha, N: p.N, MTBF: p.M}
}

// PhasesJSON is the period split of Fig. 1/3.
type PhasesJSON struct {
	Ckpt1   float64 `json:"ckpt1"`
	Ckpt2   float64 `json:"ckpt2"`
	Compute float64 `json:"compute"`
}

// WasteResponse is the /v1/waste response: the full waste breakdown of
// Eq. 4-8/13-14 at the requested (or optimal) period.
type WasteResponse struct {
	Protocol  string     `json:"protocol"`
	Params    ParamsJSON `json:"params"`
	Phi       float64    `json:"phi"`
	Theta     float64    `json:"theta"`
	Period    float64    `json:"period"`
	Phases    PhasesJSON `json:"phases"`
	WasteFF   float64    `json:"wasteFF"`
	WasteFail float64    `json:"wasteFail"`
	Waste     float64    `json:"waste"`
	Loss      float64    `json:"loss"`
	Feasible  bool       `json:"feasible"`
	// ExpectedRuntime is Tbase/(1-WASTE) (Eq. 3), present when the
	// request carries a tbase and the point is feasible.
	ExpectedRuntime float64 `json:"expectedRuntime,omitempty"`
}

// Waste evaluates the closed-form waste model at one point.
func (s *Service) Waste(req PointRequest) (WasteResponse, error) {
	pr, p, phi, err := req.resolve()
	if err != nil {
		return WasteResponse{}, err
	}
	phi = core.EffectivePhi(pr, p, phi)
	resp := WasteResponse{
		Protocol: pr.String(),
		Params:   paramsJSON(p),
		Phi:      phi,
		Theta:    p.Theta(phi),
		Feasible: true,
	}
	period := req.Period
	if period == 0 {
		period, err = core.OptimalPeriod(pr, p, phi)
		if err != nil {
			if !errors.Is(err, core.ErrMTBFTooSmall) {
				return WasteResponse{}, err
			}
			resp.Feasible = false
		}
	}
	resp.Period = period
	ph, err := core.PeriodPhases(pr, p, phi, period)
	if err != nil {
		return WasteResponse{}, fmt.Errorf("api: period %v: %w", period, err)
	}
	resp.Phases = PhasesJSON{Ckpt1: ph.Ckpt1, Ckpt2: ph.Ckpt2, Compute: ph.Compute}
	resp.WasteFF = core.WasteFF(pr, p, phi, period)
	resp.WasteFail = core.WasteFail(pr, p, phi, period)
	resp.Loss = core.FailureLoss(pr, p, phi, period)
	w, err := core.Waste(pr, p, phi, period)
	if err != nil {
		return WasteResponse{}, err
	}
	resp.Waste = w
	if w >= 1 {
		resp.Feasible = false
	}
	if req.Tbase > 0 && resp.Feasible {
		resp.ExpectedRuntime = req.Tbase / (1 - w)
	}
	return resp, nil
}

// OptimumResponse is the /v1/optimum response: the closed-form optimal
// period (Eq. 9/10/15) against its direct numeric minimization.
type OptimumResponse struct {
	Protocol string     `json:"protocol"`
	Params   ParamsJSON `json:"params"`
	Phi      float64    `json:"phi"`
	// Period is the closed-form optimal period.
	Period float64 `json:"period"`
	// NumericPeriod minimizes Eq. 5 directly by golden section,
	// standing in for the paper's Maple cross-check (§III.B).
	NumericPeriod float64 `json:"numericPeriod"`
	// PeriodGap is |Period-NumericPeriod|/NumericPeriod, the
	// first-order approximation error of the closed form.
	PeriodGap float64    `json:"periodGap"`
	MinPeriod float64    `json:"minPeriod"`
	Phases    PhasesJSON `json:"phases"`
	Waste     float64    `json:"waste"`
	// NumericWaste is the waste at NumericPeriod (always <= Waste up
	// to the solver tolerance).
	NumericWaste float64 `json:"numericWaste"`
	Feasible     bool    `json:"feasible"`
}

// Optimum evaluates the optimal-period model at one point.
func (s *Service) Optimum(req PointRequest) (OptimumResponse, error) {
	pr, p, phi, err := req.resolve()
	if err != nil {
		return OptimumResponse{}, err
	}
	if req.Period != 0 {
		return OptimumResponse{}, errors.New("api: optimum request must not fix a period")
	}
	phi = core.EffectivePhi(pr, p, phi)
	resp := OptimumResponse{
		Protocol:  pr.String(),
		Params:    paramsJSON(p),
		Phi:       phi,
		MinPeriod: core.MinPeriod(pr, p, phi),
		Feasible:  true,
	}
	period, err := core.OptimalPeriod(pr, p, phi)
	resp.Period = period
	if err != nil {
		if !errors.Is(err, core.ErrMTBFTooSmall) {
			return OptimumResponse{}, err
		}
		resp.Feasible = false
		resp.NumericPeriod = period
		resp.Waste = 1
		resp.NumericWaste = 1
		return resp, nil
	}
	// Cross-check the closed form by minimizing Eq. 5 directly: the
	// waste is unimodal in the period, and the closed form is within a
	// small factor of the true optimum wherever the model is feasible,
	// so [MinPeriod, max(4·closed, 8·MinPeriod)] brackets it.
	waste := func(period float64) float64 {
		w, werr := core.Waste(pr, p, phi, period)
		if werr != nil {
			return 1
		}
		return w
	}
	numeric, numericWaste := optimize.MinimizeUnimodal(
		waste, resp.MinPeriod, math.Max(4*period, 8*resp.MinPeriod))
	resp.NumericPeriod = numeric
	resp.NumericWaste = numericWaste
	resp.PeriodGap = math.Abs(period-numeric) / numeric
	if ph, err := core.PeriodPhases(pr, p, phi, period); err == nil {
		resp.Phases = PhasesJSON{Ckpt1: ph.Ckpt1, Ckpt2: ph.Ckpt2, Compute: ph.Compute}
	}
	resp.Waste = core.OptimalWaste(pr, p, phi)
	if resp.Waste >= 1 {
		resp.Feasible = false
	}
	return resp, nil
}

// RiskResponse is the /v1/risk response: the risk-window and
// success-probability model of §III.C/§V.C (Eq. 11, 12, 16).
type RiskResponse struct {
	Protocol string     `json:"protocol"`
	Params   ParamsJSON `json:"params"`
	Phi      float64    `json:"phi"`
	// Life is the horizon t the probabilities refer to.
	Life float64 `json:"life"`
	// RiskWindow is the post-failure window during which a second
	// (third) failure in the buddy group is fatal.
	RiskWindow float64 `json:"riskWindow"`
	// SuccessProb is Eq. 11 (double) or Eq. 16 (triple).
	SuccessProb float64 `json:"successProb"`
	FatalProb   float64 `json:"fatalProb"`
	// RunsTolerated is the expected number of length-Life executions
	// before the first fatal failure, 1/FatalProb. It is omitted when
	// the fatal probability is 0 to working precision (the count is
	// infinite, which JSON cannot carry).
	RunsTolerated *float64 `json:"runsTolerated,omitempty"`
	// BaseSuccessProb is the no-checkpointing baseline (Eq. 12), where
	// any failure is fatal.
	BaseSuccessProb float64 `json:"baseSuccessProb"`
}

// Risk evaluates the success-probability model at one point.
func (s *Service) Risk(req PointRequest) (RiskResponse, error) {
	pr, p, phi, err := req.resolve()
	if err != nil {
		return RiskResponse{}, err
	}
	life := req.Life
	if life == 0 {
		life = req.Tbase
	}
	if life <= 0 {
		return RiskResponse{}, errors.New("api: risk request needs a positive life (or tbase) horizon")
	}
	phi = core.EffectivePhi(pr, p, phi)
	success := core.SuccessProbability(pr, p, phi, life)
	resp := RiskResponse{
		Protocol:        pr.String(),
		Params:          paramsJSON(p),
		Phi:             phi,
		Life:            life,
		RiskWindow:      core.RiskWindow(pr, p, phi),
		SuccessProb:     success,
		FatalProb:       1 - success,
		BaseSuccessProb: core.BaseSuccessProbability(p, life),
	}
	if runs := core.RunsTolerated(pr, p, phi, life); !math.IsInf(runs, 0) {
		resp.RunsTolerated = &runs
	}
	return resp, nil
}
