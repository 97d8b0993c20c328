// Package engine unifies the evaluation backends behind one
// interface: a Request describes a physical point (protocol, platform,
// overhead, period, failure law, backend-specific knobs), an Engine
// resolves and compiles it into an immutable Batch, and per-worker
// Runners execute individual seeds. The chunked deterministic
// aggregation of sim.AggregateSeeded then turns any backend's runs
// into the same worker-count-independent Aggregate.
//
// Three backends implement the interface (DESIGN.md, "Evaluation
// backends"):
//
//   - "fast": the zero-allocation coordinated-timeline kernel
//     (sim.Compile/Runner), the default.
//   - "detailed": the substrate-backed simulator
//     (sim.CompileDetailed), which additionally cross-checks the
//     structural fatality verdict on every failure.
//   - "multilevel": the two-level composition — the fast kernel for
//     the in-memory buddy level, resumed across global rollbacks, with
//     the global checkpoint level of internal/multilevel layered on
//     top.
//
// The lifecycle mirrors the API sweep engine's needs: Resolve is the
// cheap feasibility gate (no substrate construction), Compile the
// cacheable per-batch precomputation, and Batch/Runner the hot path.
package engine

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/sim"
)

// ErrInfeasible marks a point where the backend cannot make progress:
// the MTBF is too small for the protocol, a fixed period is below the
// protocol's MinPeriod, the platform does not fit the detailed
// substrate shape, or no multilevel plan exists. Sweep engines turn it
// into a Feasible=false item instead of aborting the grid; every other
// Resolve/Compile error is a request error.
var ErrInfeasible = errors.New("engine: infeasible point")

// infeasible wraps err so errors.Is(_, ErrInfeasible) holds.
func infeasible(err error) error {
	return fmt.Errorf("%w: %v", ErrInfeasible, err)
}

// Request is one fully resolved evaluation point, backend-agnostic.
// The zero values of the backend-specific fields select the documented
// defaults, so a Request built for the fast engine runs unchanged on
// the detailed one.
type Request struct {
	// Protocol is the checkpointing protocol.
	Protocol core.Protocol
	// Params is the platform (Table I row plus MTBF).
	Params core.Params
	// Phi is the overhead point φ ∈ [0, R].
	Phi float64
	// Period is the inner checkpointing period; 0 lets Resolve fill the
	// backend's optimal period.
	Period float64
	// Tbase is the failure-free application duration.
	Tbase float64
	// MaxSimTime bounds each run (0 → 1000×Tbase).
	MaxSimTime float64
	// Law optionally replaces the Exponential failure law (nil selects
	// the merged-superposition fast path).
	Law failure.Law
	// Correlation optionally leaves the i.i.d. world: correlated
	// failure domains and/or heterogeneous per-group MTBFs. Supported
	// by the fast and detailed backends; rejected by multilevel.
	Correlation *failure.Correlation
	// Trace, when set, replays a recorded failure log instead of
	// generating failures (detailed backend only). The run errors with
	// failure.ErrTraceExhausted past the trace's coverage.
	Trace *failure.Trace
	// TraceID is the content identifier of Trace (name@digest from the
	// API's trace registry); caches key on it instead of the trace body.
	TraceID string
	// ImageBytes is the detailed backend's checkpoint image size
	// (0 → 512 MB).
	ImageBytes int64
	// Spares is the detailed backend's spare pool size (0 → N/10+1).
	Spares int
	// Global is the multilevel backend's global checkpoint level;
	// required by that backend, ignored by the others.
	Global *Global
}

// Global is the multilevel backend's global (stable-storage) level: a
// blocking dump of duration G every K inner periods, reloaded in Rg
// after a fatal in-memory failure. K = 0 lets Resolve optimize the
// interval.
type Global struct {
	G  float64
	Rg float64
	K  int
}

// simConfig projects the request onto the fast kernel's Config (the
// seed is always per run).
func (r Request) simConfig() sim.Config {
	return sim.Config{
		Protocol:    r.Protocol,
		Params:      r.Params,
		Phi:         r.Phi,
		Period:      r.Period,
		Tbase:       r.Tbase,
		Law:         r.Law,
		Correlation: r.Correlation,
		MaxSimTime:  r.MaxSimTime,
	}
}

// resolveCorrelation gates the correlation axes during Resolve: layout
// mismatches (a domain size or group count that does not divide the
// platform) are infeasible points — a grid sweeping N degrades per
// point instead of aborting — while any other invalid value (negative
// or non-finite rate, non-positive weight) is a request error.
func resolveCorrelation(req Request) error {
	c := req.Correlation
	if c.IID() {
		return nil
	}
	n := req.Params.N
	if d := c.Domains; d != nil && d.Size >= 1 && (d.Size > n || n%d.Size != 0) {
		return infeasible(fmt.Errorf("engine: domain size %d does not divide %d nodes", d.Size, n))
	}
	if g := len(c.Groups); g > 0 && n%g != 0 {
		return infeasible(fmt.Errorf("engine: %d MTBF groups do not divide %d nodes", g, n))
	}
	return c.Validate(n)
}

// Model is a backend's analytic prediction at a resolved request: the
// expected waste and the per-failure time loss F. The Monte-Carlo
// aggregate is validated against it.
type Model struct {
	Waste float64
	Loss  float64
}

// Engine is one evaluation backend: Resolve validates a request and
// fills its backend-resolved fields (the optimal period, the optimized
// multilevel interval), Compile precomputes the immutable per-batch
// state every seed shares.
type Engine interface {
	// Name is the backend identifier requests select ("fast",
	// "detailed", "multilevel").
	Name() string
	// Resolve returns the request with its period (and, for the
	// multilevel backend, global interval) resolved. An infeasible
	// point returns the request echo and an error matching
	// ErrInfeasible; any other error is a request error. Resolve builds
	// no substrates, so it is cheap enough to run per grid point.
	Resolve(req Request) (Request, error)
	// Compile precomputes the batch state for a resolved request
	// (Resolve is applied first when the request still carries a zero
	// period). The returned Batch is immutable and safe for concurrent
	// use.
	Compile(req Request) (Batch, error)
	// Workers reports the most workers a batch of runs of the request
	// keeps busy (sim.Workers over the executor the backend runs it
	// on), so a caller sharing a worker budget claims no more.
	Workers(req Request, runs int) int
}

// Batch is a compiled request: the unit the sweep engine caches and
// fans out over workers.
type Batch interface {
	// Request returns the resolved request the batch was compiled from.
	Request() Request
	// Model returns the backend's analytic prediction at the resolved
	// request.
	Model() Model
	// NewRunner returns a reusable single-goroutine executor. Runners
	// are not safe for concurrent use; create one per worker.
	NewRunner() Runner
}

// Runner executes single seeds of one Batch. Equal seeds give
// identical Results on every backend.
type Runner interface {
	Run(seed uint64) (sim.Result, error)
	// RunAntithetic runs the seed with the reflected-uniform failure
	// sample when antithetic is true — the mirror half of an antithetic
	// pair (DESIGN.md, "Adaptive precision"). RunAntithetic(seed, false)
	// is bitwise identical to Run(seed) on every backend.
	RunAntithetic(seed uint64, antithetic bool) (sim.Result, error)
}

// ManyRunner is the optional batched executor a Batch may implement:
// a backend-owned RunMany through a faster engine, statistically
// equivalent to the generic per-seed path and bitwise independent of
// the worker count. The fast backend implements it with the
// lane kernel (sim.LaneRunner).
type ManyRunner interface {
	RunManySeeded(base uint64, runs, workers int) (sim.Aggregate, error)
}

// AntitheticRunner is ManyRunner's antithetic-schedule counterpart,
// the optional fast path of the adaptive executor's rounds. The
// schedule matches sim.AggregateAntithetic: run j draws seed base+j/2,
// reflected when odd, observe sees every Result once in run-index
// order, and the Aggregate is bitwise independent of the worker count
// and the round split. The Results themselves need only be
// statistically equivalent to the batch's Runner: the fast backend
// runs them on the lane kernel.
type AntitheticRunner interface {
	RunAntitheticSeeded(base uint64, first, runs, workers int,
		observe func(sim.Result)) (sim.Aggregate, error)
}

// RunMany executes runs seeds base+0 .. base+runs-1 of the batch
// across the given worker budget, streaming the chunked deterministic
// aggregation: the Aggregate is bitwise independent of the worker
// count for every backend, which is what lets the sweep cache treat
// backends uniformly. Batches implementing ManyRunner (the fast
// backend's lane-batched kernel) execute through it. A per-run error (the detailed engine's fatality
// cross-check) cancels the remaining dispatch.
func RunMany(b Batch, base uint64, runs, workers int) (sim.Aggregate, error) {
	if mr, ok := b.(ManyRunner); ok {
		return mr.RunManySeeded(base, runs, workers)
	}
	return sim.AggregateSeeded(base, runs, workers, func(int) func(uint64) (sim.Result, error) {
		r := b.NewRunner()
		return r.Run
	})
}

// backends is the registry, in documentation order.
var backends = []Engine{Fast{}, Detailed{}, Multilevel{}}

// Names returns the registered backend names.
func Names() []string {
	names := make([]string, len(backends))
	for i, e := range backends {
		names[i] = e.Name()
	}
	return names
}

// ByName returns the backend registered under name; the empty string
// selects the fast engine (the documented default).
func ByName(name string) (Engine, error) {
	if name == "" {
		return Fast{}, nil
	}
	for _, e := range backends {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("engine: unknown backend %q (want %s)",
		name, strings.Join(Names(), ", "))
}

// resolvePeriod is the shared fast/detailed period resolution,
// reproducing the analytic feasibility gates: a zero period resolves
// to the closed-form optimum (Eq. 9/10/15) and an MTBF too small for
// progress is infeasible; a fixed period must admit a valid phase
// split (≥ the protocol's MinPeriod).
func resolvePeriod(req Request) (Request, error) {
	cfg := req.simConfig()
	if err := cfg.Validate(); err != nil {
		return req, err
	}
	if req.Period == 0 {
		period, err := core.OptimalPeriod(req.Protocol, req.Params, req.Phi)
		req.Period = period // echoed even when infeasible
		if err != nil {
			return req, infeasible(err)
		}
	} else if _, err := core.PeriodPhases(req.Protocol, req.Params, req.Phi, req.Period); err != nil {
		return req, infeasible(err)
	}
	return req, nil
}

// singleLevelModel is the fast/detailed analytic prediction: Eq. 5's
// waste and Eq. 7/8/14's per-failure loss at the resolved period.
func singleLevelModel(req Request) (Model, error) {
	w, err := core.Waste(req.Protocol, req.Params, req.Phi, req.Period)
	if err != nil {
		return Model{}, err
	}
	return Model{
		Waste: w,
		Loss:  core.FailureLoss(req.Protocol, req.Params, req.Phi, req.Period),
	}, nil
}
