package main

import (
	"sort"
	"strings"

	"repro/internal/api"
)

// workload is one benchmark traffic mix: the request sequence a seed
// generates, the topology that serves it and how an operation runs.
type workload struct {
	name string
	// request returns request i of the seed's sequence. Index -1 is the
	// warm-up request of set-up: same shape, a seed no timed request
	// uses, so it compiles the batches without warming the point cache.
	request func(seed uint64, i int) api.SweepRequest
	// topology names the node layout build brings up.
	topology topologyKind
	// jobs selects the durable-job operation (submit, follow results,
	// delete) instead of a streaming /v1/sweep.
	jobs bool
	// refEvery verifies every refEvery-th operation byte for byte
	// against a single-node reference computed after the timed phase
	// (1 verifies all of them).
	refEvery int
	// inProcess is how many requests of the sequence the traced run
	// replays through an in-process Service to time the kernel.
	inProcess int
}

var workloads = map[string]workload{
	"sweep_fixed": {
		name:      "sweep_fixed",
		request:   fixedRequest,
		topology:  topoSingle,
		refEvery:  4,
		inProcess: 4,
	},
	"sweep_adaptive": {
		name:      "sweep_adaptive",
		request:   adaptiveRequest,
		topology:  topoSingle,
		refEvery:  4,
		inProcess: 6,
	},
	"fleet_sweep": {
		name:      "fleet_sweep",
		request:   fleetRequest,
		topology:  topoFleet,
		refEvery:  1,
		inProcess: 8,
	},
	"sweep_jobs": {
		name:      "sweep_jobs",
		request:   fixedRequest,
		topology:  topoJobs,
		jobs:      true,
		refEvery:  4,
		inProcess: 4,
	},
	"ha_jobs": {
		name:      "ha_jobs",
		request:   jobRequest,
		topology:  topoHA,
		jobs:      true,
		refEvery:  1,
		inProcess: 16,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// mix is SplitMix64's finalizer: it turns (seed, index) pairs into
// well-spread request seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// opSeed is the request seed of operation i. The warm-up (i = -1)
// seed does not depend on the workload seed, so every run's set-up does
// the same work.
func opSeed(seed uint64, i int) uint64 {
	if i < 0 {
		seed = 0
	}
	return mix(mix(seed) + uint64(int64(i)))
}

// fixedRequest is sweep_fixed's 12-point grid at a fixed budget of 128
// runs per point, with a fresh seed per request so the point cache
// never hits.
func fixedRequest(seed uint64, i int) api.SweepRequest {
	return api.SweepRequest{
		Protocols: []string{"DoubleNBL", "DoubleBoF", "Triple"},
		PhiFracs:  []float64{0.25, 0.75},
		MTBFs:     []float64{1800, 3600},
		Tbase:     1e6,
		Runs:      128,
		Seed:      opSeed(seed, i),
	}
}

// adaptiveRelErr is sweep_adaptive's target relative CI95 half-width.
const adaptiveRelErr = 0.005

// adaptiveRequest is sweep_fixed's grid under adaptive precision: a
// first round of 16 runs, geometric rounds up to the service's maxRuns.
func adaptiveRequest(seed uint64, i int) api.SweepRequest {
	req := fixedRequest(seed, i)
	req.Runs = 16
	req.TargetRelErr = adaptiveRelErr
	return req
}

// Fleet grid: every protocol × 5 φ × a window of 12 MTBFs that slides
// by half its width per request, all under one fixed seed, so half of
// each request's points were computed by the previous request.
const (
	fleetWindow   = 12
	fleetMTBFBase = 3600.0
	fleetMTBFStep = 1.0
)

var allProtocols = []string{"DoubleBlocking", "DoubleNBL", "DoubleBoF", "Triple", "TripleBoF"}

func fleetRequest(seed uint64, i int) api.SweepRequest {
	// The warm-up (i = -1) covers request 0's window under its own seed.
	first := max(i, 0) * fleetWindow / 2
	mtbfs := make([]float64, fleetWindow)
	for k := range mtbfs {
		mtbfs[k] = fleetMTBFBase + fleetMTBFStep*float64(first+k)
	}
	return api.SweepRequest{
		Protocols: allProtocols,
		PhiFracs:  []float64{0, 0.25, 0.5, 0.75, 1},
		MTBFs:     mtbfs,
		Tbase:     1e4,
		Runs:      2,
		Seed:      opSeed(seed, min(i, 0)),
	}
}

// jobCheckpointEvery is the HA nodes' -checkpoint-every: a 32-point job
// closes eight checkpoints.
const jobCheckpointEvery = 4

// jobRequest is ha_jobs' 32-point job with a fresh seed per request, so
// every submission creates a new job.
func jobRequest(seed uint64, i int) api.SweepRequest {
	return api.SweepRequest{
		Protocols: []string{"DoubleNBL", "Triple"},
		PhiFracs:  []float64{0.2, 0.4, 0.6, 0.8},
		MTBFs:     []float64{1800, 3600, 7200, 14400},
		Tbase:     2e4,
		Runs:      4,
		Seed:      opSeed(seed, i),
	}
}

// gridSize is the number of points a request expands to.
func gridSize(req api.SweepRequest) int {
	return len(req.Protocols) * len(req.PhiFracs) * len(req.MTBFs)
}
