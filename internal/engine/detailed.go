package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Detailed is the substrate-backed backend: sim.CompileDetailed drives
// the cluster / checkpoint-registry / protocol substrates in lockstep
// with the fast timeline and cross-checks the structural fatality
// verdict against the analytic risk windows on every failure. Its
// performance metrics are bit-identical to the fast engine's for equal
// seeds; what it adds is the structural verification (and its cost —
// per-failure substrate updates are O(N)).
type Detailed struct{}

// Name returns "detailed".
func (Detailed) Name() string { return "detailed" }

// Resolve fills the optimal period, normalizes the substrate defaults
// (Spares → N/10+1, ImageBytes → 512 MB) so that explicit defaults and
// omitted fields key identically, and gates feasibility. A platform
// whose rank count is not divisible by the protocol's buddy-group size
// cannot be laid out structurally and is reported infeasible, so a
// sweep mixing double and triple protocols degrades per point instead
// of aborting.
func (Detailed) Resolve(req Request) (Request, error) {
	req, err := resolvePeriod(req)
	if err != nil {
		return req, err
	}
	if g := req.Protocol.GroupSize(); req.Params.N%g != 0 {
		return req, infeasible(fmt.Errorf("sim: %d ranks not divisible by group size %d", req.Params.N, g))
	}
	if err := resolveCorrelation(req); err != nil {
		return req, err
	}
	if tr := req.Trace; tr != nil {
		if err := tr.Validate(); err != nil {
			return req, err
		}
		if tr.Nodes != req.Params.N {
			// A grid sweeping N degrades per point: the trace only fits
			// the platform size it was recorded on.
			return req, infeasible(fmt.Errorf("engine: trace recorded for %d nodes, platform has %d",
				tr.Nodes, req.Params.N))
		}
	}
	req.Spares, req.ImageBytes = NormalizeSubstrate(req.Params, req.Spares, req.ImageBytes)
	return req, nil
}

// NormalizeSubstrate applies the detailed engine's substrate defaults
// (sim.DetailedConfig.Normalize) to a spares/imageBytes pair, so
// callers that key requests before Resolve — the API sweep's point
// keying — collapse explicit defaults and omitted fields to one
// physical configuration.
func NormalizeSubstrate(p core.Params, spares int, imageBytes int64) (int, int64) {
	n := sim.DetailedConfig{Params: p, Spares: spares, ImageBytes: imageBytes}.Normalize()
	return n.Spares, n.ImageBytes
}

// Workers is one per run: the detailed engine runs one run per worker
// at a time.
func (Detailed) Workers(_ Request, runs int) int { return sim.Workers(runs, false) }

// Compile precomputes the shared batch state via sim.CompileDetailed.
func (Detailed) Compile(req Request) (Batch, error) {
	b, err := sim.CompileDetailed(sim.DetailedConfig{
		Protocol:    req.Protocol,
		Params:      req.Params,
		Phi:         req.Phi,
		Period:      req.Period,
		Tbase:       req.Tbase,
		Spares:      req.Spares,
		ImageBytes:  req.ImageBytes,
		Law:         req.Law,
		Correlation: req.Correlation,
		Trace:       req.Trace,
		MaxSimTime:  req.MaxSimTime,
	})
	if err != nil {
		return nil, err
	}
	cfg := b.Config()
	req.Period = cfg.Period
	req.Spares = cfg.Spares
	req.ImageBytes = cfg.ImageBytes
	model, err := singleLevelModel(req)
	if err != nil {
		return nil, err
	}
	return &detailedBatch{req: req, b: b, model: model}, nil
}

type detailedBatch struct {
	req   Request
	b     *sim.DetailedBatch
	model Model
}

func (b *detailedBatch) Request() Request { return b.req }
func (b *detailedBatch) Model() Model     { return b.model }
func (b *detailedBatch) NewRunner() Runner {
	return detailedRunner{r: b.b.NewRunner()}
}

type detailedRunner struct{ r *sim.DetailedRunner }

func (d detailedRunner) Run(seed uint64) (sim.Result, error) {
	res, err := d.r.Run(seed)
	return res.Result, err
}

func (d detailedRunner) RunAntithetic(seed uint64, antithetic bool) (sim.Result, error) {
	res, err := d.r.RunAntithetic(seed, antithetic)
	return res.Result, err
}
