package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/jobs"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// SweepRequest is the /v1/sweep request: the cross product of the
// backend, protocol, φ/R and MTBF axes over one platform, simulated at
// the model-optimal (or a fixed) period with a bounded worker pool.
type SweepRequest struct {
	// Scenario describes the platform; its MTBF is overridden by each
	// point of the MTBFs axis. Its backend/law/substrate fields select
	// the evaluation engine and failure law for every point (see
	// Backends for a per-point backend axis).
	Scenario scenario.Spec `json:"scenario"`
	// Backends lists evaluation backends (fast, detailed, multilevel)
	// as an additional, outermost grid axis; empty selects the
	// scenario's backend (default fast). A multilevel point needs the
	// scenario's global level.
	Backends []string `json:"backends,omitempty"`
	// Protocols lists figure names; empty selects every protocol.
	Protocols []string `json:"protocols,omitempty"`
	// PhiFracs lists overhead points φ/R in [0, 1]; empty selects
	// {0, 0.25, 0.5, 0.75, 1}.
	PhiFracs []float64 `json:"phiFracs,omitempty"`
	// MTBFs lists platform MTBFs in seconds; empty keeps the
	// scenario's MTBF as the single axis point.
	MTBFs []float64 `json:"mtbfs,omitempty"`
	// Tbase is the failure-free application duration (default 1e5 s).
	Tbase float64 `json:"tbase,omitempty"`
	// Period fixes the checkpointing period; 0 uses the backend-optimal
	// period at each point.
	Period float64 `json:"period,omitempty"`
	// Runs is the Monte-Carlo batch per point (default 8, capped by
	// the service's MaxRuns). Under adaptive precision (TargetRelErr)
	// it is the first round's size instead of the whole budget.
	Runs int `json:"runs,omitempty"`
	// TargetRelErr enables adaptive precision: each point runs in
	// geometric rounds (Runs, 2·Runs, … up to MaxRuns) of antithetic
	// pairs and stops as soon as the variance-reduced waste CI95
	// half-width falls below TargetRelErr × |waste| (DESIGN.md,
	// "Adaptive precision"). Must be in (0, 1); 0 — the default — keeps
	// the historical fixed budget and the historical wire bytes.
	TargetRelErr float64 `json:"targetRelErr,omitempty"`
	// MaxRuns caps the adaptive budget per point (default: the
	// service's MaxRuns limit). Only valid together with TargetRelErr.
	// Rounds are whole antithetic pairs, so an odd cap rounds down —
	// the spent budget never exceeds it.
	MaxRuns int `json:"maxRuns,omitempty"`
	// Seed is the base seed; per-point seeds are derived from it
	// through an rng.Stream split keyed by the canonical point key, so
	// a point's sample is independent of its position in the grid.
	Seed uint64 `json:"seed,omitempty"`
}

// precision projects the request's adaptive fields onto the engine
// spec (zero when adaptive execution is disabled).
func (r *SweepRequest) precision() engine.Precision {
	if r.TargetRelErr == 0 {
		return engine.Precision{}
	}
	return engine.Precision{TargetRelErr: r.TargetRelErr, MinRuns: r.Runs, MaxRuns: r.MaxRuns}
}

// SweepItem is one grid point of the /v1/sweep response: the model
// evaluation and the Monte-Carlo aggregate at that point.
type SweepItem struct {
	Protocol string `json:"protocol"`
	// Backend is the evaluation engine of the point; omitted for the
	// default fast engine.
	Backend string `json:"backend,omitempty"`
	// Law is the failure law of the point; omitted for the default
	// exponential law.
	Law string `json:"law,omitempty"`
	// PhiFrac is the effective φ/R of the point: the requested value,
	// except for DoubleBlocking which always reports 1 (its exchange
	// is fully blocking regardless of the request).
	PhiFrac float64 `json:"phiFrac"`
	MTBF    float64 `json:"mtbf"`
	Seed    uint64  `json:"seed"`
	Runs    int     `json:"runs"`
	// Feasible is false when the backend cannot make progress at the
	// point (MTBF too small, fixed period below the protocol's
	// MinPeriod, no multilevel plan, platform indivisible into the
	// detailed substrate's buddy groups); such points carry
	// ModelWaste = 1 and no simulation results.
	Feasible   bool    `json:"feasible"`
	Period     float64 `json:"period"`
	ModelWaste float64 `json:"modelWaste"`
	ModelLoss  float64 `json:"modelLoss"`
	RiskWindow float64 `json:"riskWindow"`
	// SimWaste and SimCI are the Monte-Carlo waste estimate and its 95%
	// CI half-width. For adaptive points (the request set targetRelErr)
	// they are the variance-reduced estimator the stopper tracked; for
	// fixed-budget points the raw sample statistics, unchanged.
	SimWaste float64 `json:"simWaste"`
	SimCI    float64 `json:"simCI"`
	SimLoss  float64 `json:"simLoss"`
	// RunsUsed is the adaptive budget the point actually consumed and
	// CI95 the achieved variance-reduced waste CI95 half-width (the
	// stopping quantity, = SimCI). Both appear only for adaptive
	// requests — fixed-budget responses keep their historical bytes —
	// and RunsUsed is the reliable adaptiveness marker: it is present
	// on every simulated adaptive point, while CI95 is additionally
	// omitted when the pair wastes had zero variance (fewer than 2
	// completed pairs, or identical wastes up to maxRuns: the point
	// reports an exact 0, unconverged, which JSON omitempty elides).
	RunsUsed int     `json:"runsUsed,omitempty"`
	CI95     float64 `json:"ci95,omitempty"`
	// FatalRate and CompletedRate are per-run frequencies;
	// ImportanceFatal is the variance-reduced fatal-probability
	// estimate.
	FatalRate       float64 `json:"fatalRate"`
	CompletedRate   float64 `json:"completedRate"`
	ImportanceFatal float64 `json:"importanceFatal"`
}

// SweepStats summarizes one sweep execution. It travels in HTTP
// headers (not the body) so that repeated identical sweeps return
// byte-identical bodies.
type SweepStats struct {
	// Points is the number of points in the evaluated range: the whole
	// grid unless an offset or limit selected a sub-range.
	Points      int
	CacheHits   int
	CacheMisses int
}

// sweepPoint is one materialised grid point awaiting evaluation.
type sweepPoint struct {
	eng     engine.Engine
	req     engine.Request
	seed    uint64
	phiFrac float64
	backend string // item label: "" for the default fast engine
	law     string // item label: "" for the default exponential law
	key     string
}

// defaultPhiFracs is the φ/R axis used when a sweep request leaves
// PhiFracs empty.
var defaultPhiFracs = []float64{0, 0.25, 0.5, 0.75, 1}

// sweepPlan is a validated sweep grid: its axes and grid-wide settings
// resolved once, no point materialised. Grid order is backends ×
// protocols × phiFracs × mtbfs (MTBF innermost), so a point's index is
// a mixed-radix number over the axis lengths and the points of any
// range [from, to) are built in O(to − from), whatever the grid size.
type sweepPlan struct {
	req       *SweepRequest // normalized in place by plan
	engines   []engine.Engine
	protocols []core.Protocol
	phiFracs  []float64
	// params and laws hold the platform and its failure law at each
	// MTBF axis value. Laws are resolved at every MTBF up front, so a
	// law that is bad anywhere on the axis fails the whole request,
	// whatever range of it is asked for.
	params  []core.Params
	laws    []failure.Law
	corr    *failure.Correlation
	trace   *failure.Trace
	traceID string
	seeds   *rng.Stream // the base stream per-point seeds split from
	total   int
}

// plan validates the request, fills its defaults in place (callers
// rely on the normalized Runs, and jobs key on the normalized request)
// and resolves the grid's axes.
func (s *Service) plan(req *SweepRequest) (*sweepPlan, error) {
	base, err := req.Scenario.Resolve()
	if err != nil {
		return nil, err
	}
	// The correlation settings are MTBF-independent (relative weights,
	// absolute burst rate), so one resolution serves the whole grid;
	// layout feasibility against N stays per point in the backends.
	corr, err := req.Scenario.ResolveCorrelation(base)
	if err != nil {
		return nil, err
	}
	var trace *failure.Trace
	var traceID string
	if name := req.Scenario.Trace; name != "" {
		tr, id, ok := s.LookupTrace(name)
		if !ok {
			return nil, fmt.Errorf("api: unknown trace %q (server has %d registered)", name, len(s.TraceIDs()))
		}
		if tr.Nodes != base.N {
			// N is not a grid axis, so a platform-size mismatch fails the
			// whole request up front instead of degrading every point.
			return nil, fmt.Errorf("api: trace %q recorded for %d nodes, scenario has %d", name, tr.Nodes, base.N)
		}
		trace, traceID = tr, id
	}
	backendNames := req.Backends
	if len(backendNames) == 0 {
		backendNames = []string{req.Scenario.Backend}
	}
	engines := make([]engine.Engine, len(backendNames))
	for i, name := range backendNames {
		if engines[i], err = engine.ByName(name); err != nil {
			return nil, err
		}
		// Point-independent backend knobs are gated here, like the
		// protocol and law axes: a bad global level or substrate shape
		// is a 400 before any work, not a mid-stream abort.
		switch engines[i].Name() {
		case "multilevel":
			if req.Scenario.Global == nil {
				return nil, errors.New("api: multilevel backend needs scenario.global ({g, rg, k})")
			}
			g := engine.Global{G: req.Scenario.Global.G, Rg: req.Scenario.Global.Rg, K: req.Scenario.Global.K}
			if err := g.Validate(); err != nil {
				return nil, err
			}
		case "detailed":
			if req.Scenario.Spares < 0 || req.Scenario.ImageBytes < 0 {
				return nil, fmt.Errorf("api: detailed substrate knobs must be >= 0 (spares %d, imageBytes %d)",
					req.Scenario.Spares, req.Scenario.ImageBytes)
			}
		}
		// The correlation and trace axes are scenario-wide, so a backend
		// axis that cannot run them fails the request up front — same
		// policy as a bad global level.
		if trace != nil && engines[i].Name() != "detailed" {
			return nil, fmt.Errorf("api: trace replay requires the detailed backend (grid includes %q)", engines[i].Name())
		}
		if corr != nil && engines[i].Name() == "multilevel" {
			return nil, errors.New("api: correlated failures (domains/groups) are not supported by the multilevel backend")
		}
	}
	// Validate the law shape once up front; the law is then resolved at
	// each MTBF axis value below.
	if _, err := req.Scenario.ResolveLaw(base); err != nil {
		return nil, err
	}
	names := req.Protocols
	if len(names) == 0 {
		names = make([]string, len(core.Protocols))
		for i, pr := range core.Protocols {
			names[i] = pr.String()
		}
	}
	protocols := make([]core.Protocol, len(names))
	for i, name := range names {
		if protocols[i], err = core.ParseProtocol(name); err != nil {
			return nil, err
		}
	}
	phiFracs := req.PhiFracs
	if len(phiFracs) == 0 {
		phiFracs = defaultPhiFracs
	}
	for _, f := range phiFracs {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("api: phiFrac = %v must be in [0, 1]", f)
		}
	}
	mtbfs := req.MTBFs
	if len(mtbfs) == 0 {
		mtbfs = []float64{base.M}
	}
	for _, m := range mtbfs {
		if m <= 0 {
			return nil, fmt.Errorf("api: mtbf = %v must be > 0", m)
		}
	}
	if req.Tbase == 0 {
		req.Tbase = 1e5
	}
	if req.Tbase < 0 || req.Period < 0 {
		return nil, errors.New("api: tbase and period must be >= 0")
	}
	if req.Runs == 0 {
		req.Runs = 8
	}
	if req.Runs < 1 || req.Runs > s.maxRuns {
		return nil, fmt.Errorf("api: runs = %d must be in [1, %d]", req.Runs, s.maxRuns)
	}
	if req.TargetRelErr != 0 {
		if math.IsNaN(req.TargetRelErr) || req.TargetRelErr <= 0 || req.TargetRelErr >= 1 {
			return nil, fmt.Errorf("api: targetRelErr = %v must be in (0, 1)", req.TargetRelErr)
		}
		// The adaptive budget defaults to the service's per-point cap
		// and is normalized into the request, so two spellings of the
		// default dedupe to one job and one set of cache keys.
		if req.MaxRuns == 0 {
			req.MaxRuns = s.maxRuns
		}
		if req.MaxRuns < req.Runs || req.MaxRuns > s.maxRuns {
			return nil, fmt.Errorf("api: maxRuns = %d must be in [runs = %d, %d]",
				req.MaxRuns, req.Runs, s.maxRuns)
		}
		// Rounds are whole antithetic pairs: the first round rounds up,
		// the cap rounds down. A cap that cannot fit the rounded first
		// round (runs and maxRuns both odd and equal) is a request error
		// here — not a silent budget overrun, nor a mid-stream abort.
		if req.MaxRuns-(req.MaxRuns&1) < req.Runs+(req.Runs&1) {
			return nil, fmt.Errorf("api: maxRuns = %d cannot fit the first round (%d runs rounded up to whole antithetic pairs)",
				req.MaxRuns, req.Runs)
		}
	} else if req.MaxRuns != 0 {
		return nil, errors.New("api: maxRuns needs targetRelErr (adaptive precision)")
	}
	total := len(engines) * len(protocols) * len(phiFracs) * len(mtbfs)
	if total > s.maxGridPoints {
		return nil, fmt.Errorf("api: sweep grid has %d points, limit is %d", total, s.maxGridPoints)
	}
	// Write the resolved axes back into the request (fresh slices, so
	// a caller's arrays are never mutated): the job subsystem derives
	// its content key from the normalized request, and an omitted axis
	// must dedupe against its spelled-out default. ParseProtocol is
	// exact-match, so explicit protocol names are already canonical;
	// backends normalize through the engine ("" → "fast").
	req.Backends = make([]string, len(engines))
	for i, eng := range engines {
		req.Backends[i] = eng.Name()
	}
	req.Protocols = append([]string(nil), names...)
	req.PhiFracs = append([]float64(nil), phiFracs...)
	req.MTBFs = append([]float64(nil), mtbfs...)

	pl := &sweepPlan{
		req:       req,
		engines:   engines,
		protocols: protocols,
		phiFracs:  req.PhiFracs,
		params:    make([]core.Params, len(mtbfs)),
		laws:      make([]failure.Law, len(mtbfs)),
		corr:      corr,
		trace:     trace,
		traceID:   traceID,
		seeds:     rng.New(req.Seed),
		total:     total,
	}
	for i, m := range mtbfs {
		pl.params[i] = base.WithMTBF(m)
		if pl.laws[i], err = req.Scenario.ResolveLaw(pl.params[i]); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// point materialises grid point i: its engine request, canonical key,
// derived seed and item labels.
func (pl *sweepPlan) point(i int) sweepPoint {
	nm, nf, np := len(pl.params), len(pl.phiFracs), len(pl.protocols)
	m := i % nm
	i /= nm
	frac := pl.phiFracs[i%nf]
	i /= nf
	pr := pl.protocols[i%np]
	eng := pl.engines[i/np]

	p, law := pl.params[m], pl.laws[m]
	// Canonicalize φ before keying: DoubleBlocking pins φ = R whatever
	// the request asks, so its grid points collapse to one cache entry
	// (and one simulation) per MTBF, and the cached item's content is
	// fully determined by the key.
	phi := core.EffectivePhi(pr, p, frac*p.R)
	req := pl.req
	preq := engine.Request{
		Protocol: pr,
		Params:   p,
		Phi:      phi,
		Period:   req.Period,
		Tbase:    req.Tbase,
		Law:      law,
	}
	// Backend-specific knobs are threaded only into the backend that
	// reads them, so a fast point's key never varies with, say, an
	// irrelevant imageBytes override.
	switch eng.Name() {
	case "fast":
		preq.Correlation = pl.corr
	case "detailed":
		// Normalized before keying: a spelled-out default and an omitted
		// field are the same physical point (same key, same derived
		// seed, same cache entry).
		preq.Spares, preq.ImageBytes = engine.NormalizeSubstrate(
			p, req.Scenario.Spares, req.Scenario.ImageBytes)
		preq.Correlation = pl.corr
		preq.Trace, preq.TraceID = pl.trace, pl.traceID
	case "multilevel":
		g := req.Scenario.Global
		preq.Global = &engine.Global{G: g.G, Rg: g.Rg, K: g.K}
	}
	key := pointKey(eng.Name(), preq, req.Runs, req.Seed, req.precision())
	// The per-point seed depends only on the canonical key, never on the
	// grid position, so overlapping sweeps resolve the same point to the
	// same sample (and the same cache entry).
	var seed rng.Stream
	seed.ReseedSplit(pl.seeds, fnv64(key))
	return sweepPoint{
		eng:     eng,
		req:     preq,
		seed:    seed.Uint64(),
		phiFrac: phi / p.R,
		backend: backendLabel(eng),
		law:     lawLabel(law),
		key:     key,
	}
}

// bounds resolves the grid range [offset, offset+limit) to [lo, hi):
// limit < 0, or a limit overshooting the grid, runs to the grid's end.
// It is the one range check behind /v1/sweep on either tier and a
// job's resume, so an offset past the grid fails with one message.
func (pl *sweepPlan) bounds(offset, limit int) (lo, hi int, err error) {
	if offset < 0 || offset > pl.total {
		return 0, 0, fmt.Errorf("api: offset %d outside the %d-point grid", offset, pl.total)
	}
	hi = pl.total
	if limit >= 0 && limit < hi-offset {
		hi = offset + limit
	}
	return offset, hi, nil
}

// span materialises the grid range [offset, offset+limit) (see
// bounds).
func (pl *sweepPlan) span(offset, limit int) ([]sweepPoint, error) {
	lo, hi, err := pl.bounds(offset, limit)
	if err != nil {
		return nil, err
	}
	points := make([]sweepPoint, hi-lo)
	for i := range points {
		points[i] = pl.point(lo + i)
	}
	return points, nil
}

// backendLabel is the item's backend echo: the canonical engine name,
// with the default fast engine rendered as the empty string (omitted
// from the JSON) so that default requests keep their historical wire
// format and the label is a pure function of the point key.
func backendLabel(eng engine.Engine) string {
	if eng.Name() == "fast" {
		return ""
	}
	return eng.Name()
}

// lawLabel is the item's law echo, empty (omitted) for the default
// exponential law — including an explicitly requested "exponential",
// which resolves to the same nil-law fast path and must share its
// cache entries.
func lawLabel(law failure.Law) string {
	if law == nil {
		return ""
	}
	return law.Name()
}

// batchKey canonicalizes the physical configuration of a sweep point:
// every field that influences the simulation trajectory, rendered with
// exact float encoding — but not the batch size or seed, so it also
// keys the compiled-batch cache shared across sweeps. The
// backend-specific fields (law, backend name, substrate shape, global
// level, horizon) are keyed only when they differ from the defaults,
// so the historical fast/exponential keys — and therefore the derived
// per-point seeds and golden responses — are unchanged.
func batchKey(backend string, req engine.Request) string {
	return string(appendBatchKey(make([]byte, 0, 192), backend, req))
}

// appendBatchKey appends batchKey's rendering to b. Keys are built for
// every point of every sweep, so they are appended into one buffer
// with strconv; only a non-default failure law goes through fmt.
func appendBatchKey(b []byte, backend string, req engine.Request) []byte {
	p := req.Params
	b = append(b, req.Protocol.String()...)
	for _, f := range [...]float64{p.D, p.Delta, p.R, p.Alpha, p.M, req.Phi, req.Period, req.Tbase} {
		b = append(b, '|')
		b = strconv.AppendFloat(b, f, 'x', -1, 64)
	}
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, int64(p.N), 10)
	if req.Law != nil {
		// Go syntax with every parameter (Name() alone omits the law's
		// MTBF), as the historical keys have it.
		b = fmt.Appendf(b, "|law=%#v", req.Law)
	}
	if req.MaxSimTime != 0 {
		b = append(b, "|maxt="...)
		b = strconv.AppendFloat(b, req.MaxSimTime, 'x', -1, 64)
	}
	if backend != "" && backend != "fast" {
		b = append(b, "|backend="...)
		b = append(b, backend...)
	}
	if req.ImageBytes != 0 {
		b = append(b, "|img="...)
		b = strconv.AppendInt(b, req.ImageBytes, 10)
	}
	if req.Spares != 0 {
		b = append(b, "|spares="...)
		b = strconv.AppendInt(b, int64(req.Spares), 10)
	}
	if g := req.Global; g != nil {
		b = append(b, "|g="...)
		b = strconv.AppendFloat(b, g.G, 'x', -1, 64)
		b = append(b, "|rg="...)
		b = strconv.AppendFloat(b, g.Rg, 'x', -1, 64)
		b = append(b, "|k="...)
		b = strconv.AppendInt(b, int64(g.K), 10)
	}
	if c := req.Correlation; c != nil {
		if d := c.Domains; d != nil {
			b = append(b, "|dom="...)
			b = strconv.AppendInt(b, int64(d.Size), 10)
			b = append(b, ':')
			b = strconv.AppendFloat(b, d.Rate, 'x', -1, 64)
			if d.Stripe {
				b = append(b, ":stripe"...)
			}
		}
		if len(c.Groups) > 0 {
			b = append(b, "|groups="...)
			for i, w := range c.Groups {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendFloat(b, w, 'x', -1, 64)
			}
		}
	}
	if req.TraceID != "" {
		// The content id (name@digest), not the trace bytes: re-binding a
		// name to a different log changes the id, so it can never alias a
		// cached point.
		b = append(b, "|trace="...)
		b = append(b, req.TraceID...)
	}
	return b
}

// pointKey canonicalizes a sweep point into the cache key: the
// physical configuration plus the batch shape. Two requests that
// resolve to the same physical point — whatever scenario name,
// override set or grid shape produced it — share a key. The adaptive
// precision spec is keyed only when enabled, so fixed-budget requests
// keep their historical keys (and therefore their derived per-point
// seeds and golden byte responses) unchanged.
func pointKey(backend string, req engine.Request, runs int, baseSeed uint64, spec engine.Precision) string {
	b := appendBatchKey(make([]byte, 0, 256), backend, req)
	b = append(b, "|runs="...)
	b = strconv.AppendInt(b, int64(runs), 10)
	b = append(b, "|seed="...)
	b = strconv.AppendUint(b, baseSeed, 10)
	if spec.Enabled() {
		b = append(b, "|relerr="...)
		b = strconv.AppendFloat(b, spec.TargetRelErr, 'x', -1, 64)
		b = append(b, "|maxruns="...)
		b = strconv.AppendInt(b, int64(spec.MaxRuns), 10)
	}
	return string(b)
}

// fnv64 is the FNV-1a hash of s, used to key rng.Stream.Split.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// evaluate computes one grid point that missed the cache and caches
// it. A zero spec runs the historical fixed budget; an enabled spec
// runs the adaptive-precision executor and additionally fills the
// RunsUsed / CI95 echoes.
func (s *Service) evaluate(pt sweepPoint, runs int, spec engine.Precision, simWorkers int) (SweepItem, error) {
	p, pr := pt.req.Params, pt.req.Protocol
	item := SweepItem{
		Protocol:   pr.String(),
		Backend:    pt.backend,
		Law:        pt.law,
		PhiFrac:    pt.phiFrac,
		MTBF:       p.M,
		Seed:       pt.seed,
		Runs:       runs,
		RiskWindow: core.RiskWindow(pr, p, pt.req.Phi),
	}
	// Resolve the period (and, for multilevel, the plan) up front so
	// infeasible points — MTBF too small for any progress, a fixed
	// period below this protocol's MinPeriod, no feasible two-level
	// plan — become Feasible=false items instead of either burning the
	// full MaxSimTime horizon or aborting the rest of the grid.
	resolved, err := pt.eng.Resolve(pt.req)
	if err != nil {
		if errors.Is(err, engine.ErrInfeasible) {
			item.Period = resolved.Period
			item.ModelWaste = 1
			item.ModelLoss = core.FailureLoss(pr, p, pt.req.Phi, resolved.Period)
			s.cache.Put(pt.key, item)
			return item, nil
		}
		return SweepItem{}, fmt.Errorf("api: point %s: %w", pt.key, err)
	}
	s.simPoints.Add(1)
	// The compiled batch is keyed by the physical configuration (with
	// the period and plan resolved), so grid rows that collapse to one
	// physical point and repeated sweeps with different seeds or batch
	// sizes share one compilation — whatever the backend.
	b, err := s.compiledBatch(batchKey(pt.eng.Name(), resolved), pt.eng, resolved)
	if err != nil {
		return SweepItem{}, fmt.Errorf("api: point %s: %w", pt.key, err)
	}
	var row experiments.ValidationRow
	if spec.Enabled() {
		var ar engine.AdaptiveResult
		row, ar, err = experiments.ValidateAdaptive(b, pt.seed, spec, simWorkers)
		if err == nil {
			item.RunsUsed = ar.RunsUsed
			item.CI95 = ar.CI95
		}
	} else {
		row, err = experiments.ValidateBatch(b, pt.seed, runs, simWorkers)
	}
	if err != nil {
		return SweepItem{}, fmt.Errorf("api: point %s: %w", pt.key, err)
	}
	item.Feasible = row.ModelWaste < 1
	item.Period = row.Period
	item.ModelWaste = row.ModelWaste
	item.ModelLoss = row.ModelLoss
	item.SimWaste = row.SimWaste
	item.SimCI = row.SimCI
	item.SimLoss = row.SimLoss
	item.FatalRate = row.FatalRate
	item.CompletedRate = row.CompletedRate
	item.ImportanceFatal = row.ImportanceFatal
	s.cache.Put(pt.key, item)
	return item, nil
}

// SweepStream expands the request's grid, evaluates it across the
// service's shared priority pool at interactive priority, and emits
// the items in grid order as each becomes ready (the first items of a
// large sweep stream while the rest still compute). emit runs on the
// caller's goroutine; an emit error or a cancelled ctx aborts the
// sweep, and no further grid points are admitted to the pool (a
// disconnected client does not keep burning CPU on the rest of the
// grid).
func (s *Service) SweepStream(ctx context.Context, req SweepRequest, emit func(SweepItem) error) (SweepStats, error) {
	pl, err := s.plan(&req)
	if err != nil {
		return SweepStats{}, err
	}
	return s.runPlan(ctx, pl, 0, -1, jobs.Interactive, nil, emit, nil)
}

// SweepLines is the service's one range entry for NDJSON consumers: it
// plans the /v1/sweep request body (through the plan cache) and emits
// the lines of the half-open point range [offset, offset+limit) of its
// grid (limit < 0 selects the rest of the grid; a limit overshooting
// the grid is truncated), admitting each point to the service-wide
// priority pool at priority pr. start, if non-nil, receives the full
// grid size after validation and before any evaluation; returning an
// error from it aborts the sweep. The durable job executor resumes
// through it from its durable offset, and a fabric coordinator runs
// the ranges its fleet cannot serve through it. Per-point seeds are
// content-keyed, never position-dependent, so any range's lines are
// bitwise the same slice of a full single-node run.
func (s *Service) SweepLines(ctx context.Context, body []byte, offset, limit int, pr jobs.Priority, start func(total int) error, emit func(line []byte) error) error {
	pl, err := s.planBody(body)
	if err != nil {
		return err
	}
	_, err = s.runLines(ctx, pl, offset, limit, pr, start, emit, nil)
	return err
}

// runLines is runPlan with each item encoded as its NDJSON line: the
// one encoding of a sweep item, shared by the /v1/sweep response, the
// job results file and a coordinator's degraded local execution.
func (s *Service) runLines(ctx context.Context, pl *sweepPlan, offset, limit int, pr jobs.Priority, start func(total int) error, emit func(line []byte) error, stalled func()) (SweepStats, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	return s.runPlan(ctx, pl, offset, limit, pr, start, func(item SweepItem) error {
		buf.Reset()
		if err := enc.Encode(item); err != nil {
			return err
		}
		return emit(buf.Bytes())
	}, stalled)
}

// PointKeys returns the canonical content key of every grid point of
// the request, in grid order. The keys are what the fabric coordinator
// partitions across workers: a point's key (and therefore its derived
// seed and its evaluated bytes) is independent of the grid position
// and of which node evaluates it.
func (s *Service) PointKeys(req SweepRequest) ([]string, error) {
	pl, err := s.plan(&req)
	if err != nil {
		return nil, err
	}
	return pl.keys(0, pl.total), nil
}

// keys materialises the points [lo, hi) of the plan for their keys.
func (pl *sweepPlan) keys(lo, hi int) []string {
	keys := make([]string, hi-lo)
	for i := range keys {
		keys[i] = pl.point(lo + i).key
	}
	return keys
}

// runPlan evaluates the points [offset, offset+limit) of a plan and
// emits their items in grid order. It materialises only the requested
// range, so a worker serving one range of a large grid — or a job
// resuming near its end — pays for that range, not for the grid. The
// plan is only read, so one cached plan serves concurrent requests.
// stalled, if non-nil, runs on the emitting goroutine whenever the
// next point is not ready yet: the streaming handler flushes there.
func (s *Service) runPlan(ctx context.Context, pl *sweepPlan, offset, limit int, pr jobs.Priority, onExpand func(total int) error, emit func(SweepItem) error, stalled func()) (SweepStats, error) {
	if onExpand != nil {
		if err := onExpand(pl.total); err != nil {
			return SweepStats{}, err
		}
	}
	points, err := pl.span(offset, limit)
	if err != nil {
		return SweepStats{}, err
	}
	stats := SweepStats{Points: len(points)}
	runs, spec := pl.req.Runs, pl.req.precision()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type slot struct {
		item   SweepItem
		cached bool
		err    error
	}
	slots := make([]slot, len(points))
	ready := make([]chan struct{}, len(points))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	// lead is a semaphore over the points admitted but not yet emitted:
	// the feeder takes a slot per point, the emitter returns it once the
	// point's item is out.
	lead := make(chan struct{}, feederLead*s.pool.Capacity())
	// The feeder admits points in grid order. A cached point is ready at
	// once, with no token or goroutine. A miss claims its tokens from the
	// shared pool (admit) and evaluates on a goroutine of its own, so the
	// concurrent simulation goroutines never exceed the service's
	// Workers budget, whatever the number of in-flight requests.
	go func() {
		for i, pt := range points {
			select {
			case lead <- struct{}{}:
			case <-ctx.Done():
			}
			if err := ctx.Err(); err != nil {
				for ; i < len(points); i++ {
					slots[i] = slot{err: err}
					close(ready[i])
				}
				return
			}
			item, held, err := s.admit(ctx, pr, pt.key, pl.workers(pt, i, s.pool.Capacity()))
			if err != nil || held == 0 {
				slots[i] = slot{item: item, cached: err == nil, err: err}
				close(ready[i])
				continue
			}
			go func(i, held int) {
				item, err := s.evaluate(points[i], runs, spec, held)
				for j := 0; j < held; j++ {
					s.pool.Release()
				}
				slots[i] = slot{item: item, err: err}
				close(ready[i])
			}(i, held)
		}
	}()

	for i := range points {
		select {
		case <-ready[i]:
		default:
			if stalled != nil {
				stalled()
			}
			select {
			case <-ready[i]:
			case <-ctx.Done():
				return stats, ctx.Err()
			}
		}
		if slots[i].err != nil {
			return stats, slots[i].err
		}
		if slots[i].cached {
			stats.CacheHits++
		} else {
			stats.CacheMisses++
		}
		if err := emit(slots[i].item); err != nil {
			return stats, err
		}
		<-lead
	}
	return stats, nil
}

// workers is how many workers point pt, the i-th of its range, claims
// from a pool of the given capacity: those it keeps busy at its widest
// round (the fixed budget, or the adaptive cap), as its backend counts
// them, with one exception. An adaptive point on the lane kernel runs
// short rounds, and a round split over several workers wakes its extra
// workers again at every round barrier: on a 2-vCPU node the second
// worker started 66–300 µs into rounds of 0.3–0.8 ms, and the claimed
// workers were busy 74 % of the time. So behind the range's first
// capacity points, which start one after another on an idle pool and
// carry the stream's first lines, such a point claims one worker, and
// the cores run whole points side by side. Splitting the head keeps
// the first line prompt: with every point on one worker, the first
// line waited for a core (perfbench first_result 1.8 → 9.5–10.4 ms).
// Scalar-path adaptive points (renewal laws, correlation, the detailed
// and multilevel backends) keep their full claim.
func (pl *sweepPlan) workers(pt sweepPoint, i, capacity int) int {
	if pl.req.TargetRelErr != 0 && i >= capacity && engine.LaneBatched(pt.eng, pt.req) {
		return 1
	}
	widest := pl.req.Runs
	if pl.req.TargetRelErr != 0 {
		widest = pl.req.MaxRuns
	}
	return pt.eng.Workers(pt.req, widest)
}

// feederLead is how many points per pool token runPlan's feeder may
// admit ahead of emission: enough to keep computing while the consumer
// stalls (a job's checkpoint fsync), and a bound on the points a
// consumer that went away still gets simulated.
const feederLead = 2

// admit is the feeder's cache lookup and token claim for one point. A
// cached point takes no token (held 0). A miss waits for one token at
// priority pr, then takes idle tokens up to want, the workers its
// widest round keeps busy (sweepPlan.workers): claiming them here,
// before the next point is admitted, spreads the point over every
// idle core it can use, and leaves the rest to the points behind it.
// The cache is looked up again once the first token is held, since a
// duplicate earlier in the grid (DoubleBlocking's collapsed φ rows)
// may have cached the point meanwhile; the cache counts one hit or
// miss per point either way.
func (s *Service) admit(ctx context.Context, pr jobs.Priority, key string, want int) (item SweepItem, held int, err error) {
	item, hit := s.cache.peek(key)
	if !hit {
		if err := s.pool.Acquire(ctx, pr); err != nil {
			return SweepItem{}, 0, err
		}
		if item, hit = s.cache.peek(key); hit {
			s.pool.Release()
		} else {
			held = 1
		}
	}
	s.cache.count(hit)
	for held > 0 && held < want && s.pool.TryAcquire() {
		held++
	}
	return item, held, nil
}

// Sweep is SweepStream collected into a slice, for the non-streaming
// JSON response and for library callers.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) ([]SweepItem, SweepStats, error) {
	items := make([]SweepItem, 0, 16)
	stats, err := s.SweepStream(ctx, req, func(item SweepItem) error {
		items = append(items, item)
		return nil
	}) // req is a value; SweepStream normalizes its own copy
	if err != nil {
		return nil, stats, err
	}
	return items, stats, nil
}
