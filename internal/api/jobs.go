package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/jobs"
)

// This file adapts the sweep engine to the durable job subsystem
// (internal/jobs) and mounts its HTTP surface:
//
//	POST   /v1/jobs              submit a sweep as a durable job
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         status + progress
//	GET    /v1/jobs/{id}/results NDJSON results (?offset=N resumes)
//	DELETE /v1/jobs/{id}         cancel (active) / delete (terminal)
//
// The job body is exactly the /v1/sweep request. DESIGN.md, "Job
// subsystem", documents the state machine and resume semantics.

// NormalizeJobRequest is the jobs.Normalizer of the sweep service: it
// strictly decodes a /v1/sweep request body, validates it by planning
// the grid (filling the documented defaults in place), and returns the
// canonical request bytes — the job's content key — plus the grid
// size. Two submissions that decode to the same normalized request
// canonicalize identically and therefore dedupe to the same job id.
// It builds no grid point.
func (s *Service) NormalizeJobRequest(request []byte) ([]byte, int, error) {
	canonical, pl, err := s.normalize(request)
	if err != nil {
		return nil, 0, err
	}
	return canonical, pl.total, nil
}

// NormalizedSweep is one range of a sweep request made ready for
// fan-out by one plan of its grid.
type NormalizedSweep struct {
	// Canonical is the canonical request: the job content key, and the
	// body a fabric coordinator dispatches to its workers.
	Canonical []byte
	// Total is the number of points of the whole grid.
	Total int
	// Offset is the grid index of the range's first point, and Keys the
	// canonical content key of each point of the range, in grid order
	// (as PointKeys returns them for the whole grid).
	Offset int
	Keys   []string
}

// NormalizeSweep is NormalizeJobRequest plus the point keys of the
// grid range [offset, offset+limit) (limit < 0 runs to the end of the
// grid), from one plan of the grid: what a fabric coordinator needs to
// partition and dispatch that range. It builds the range's points
// only, and checks the range as a node's /v1/sweep does, with the same
// error.
func (s *Service) NormalizeSweep(request []byte, offset, limit int) (NormalizedSweep, error) {
	canonical, pl, err := s.normalize(request)
	if err != nil {
		return NormalizedSweep{}, err
	}
	lo, hi, err := pl.bounds(offset, limit)
	if err != nil {
		return NormalizedSweep{}, err
	}
	return NormalizedSweep{Canonical: canonical, Total: pl.total, Offset: lo, Keys: pl.keys(lo, hi)}, nil
}

// normalize strictly decodes and plans a sweep request body and
// returns its canonical bytes with the plan.
func (s *Service) normalize(request []byte) ([]byte, *sweepPlan, error) {
	var req SweepRequest
	if err := decodeStrict(bytes.NewReader(request), &req); err != nil {
		return nil, nil, err
	}
	pl, err := s.plan(&req) // validates and fills defaults
	if err != nil {
		return nil, nil, err
	}
	// Collapse the scenario's enum aliases onto their omitted-field
	// spellings (plan already validated them): "Base" is the default
	// scenario, "fast" the default backend (the axis it feeds is frozen
	// into req.Backends above), "exponential" the default law. Numeric
	// overrides spelled at their table values are NOT collapsed — that
	// equivalence would couple the key to the scenario tables. No
	// point key reads these fields, so the plan stays valid.
	if req.Scenario.Name == "Base" {
		req.Scenario.Name = ""
	}
	if req.Scenario.Backend == "fast" {
		req.Scenario.Backend = ""
	}
	if req.Scenario.Law == "exponential" {
		req.Scenario.Law = ""
	}
	canonical, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	return canonical, pl, nil
}

// JobExecutor is the jobs.Executor of the sweep service: it replays
// the canonical request through SweepLines — at Batch priority, from
// the durable offset — so each item is encoded exactly like the
// streaming /v1/sweep response (compact JSON, one line per item).
// Identical request bytes therefore produce identical line bytes on
// every execution, which is what makes a resumed job's results file
// bitwise equal to an uninterrupted run.
func (s *Service) JobExecutor() jobs.Executor {
	return func(ctx context.Context, request []byte, offset int, start func(total int) error, emit func(line []byte) error) error {
		return s.SweepLines(ctx, request, offset, -1, jobs.Batch, start, emit)
	}
}

// jobListResponse is the GET /v1/jobs body.
type jobListResponse struct {
	Jobs []jobs.Meta `json:"jobs"`
}

// writeJobError maps job-subsystem errors onto HTTP statuses: unknown
// ids are 404s, persistence failures (disk full, permissions) are 500s
// so clients retry the submission instead of discarding it as invalid,
// a saturated queue is a 503 with a Retry-After (the request was fine;
// the node is shedding load), as is a delete refused while the job's
// lease is held, and everything else is a request error.
func writeJobError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, jobs.ErrStorage):
		status = http.StatusInternalServerError
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		status = http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrLeaseHeld):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	}
	WriteError(w, status, err)
}

// jobsManager returns the attached manager, answering 503 with a
// Retry-After (the shape of queue shedding: the request is fine, the
// node cannot take it right now) when none is attached — jobs are
// disabled, or this is a standby whose promotion has not handed it a
// manager yet. Callers return immediately on nil.
func (s *Service) jobsManager(w http.ResponseWriter) *jobs.Manager {
	mgr := s.Jobs()
	if mgr == nil {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable,
			errors.New("api: no job manager attached (standby, or jobs disabled)"))
	}
	return mgr
}

func (s *Service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	mgr := s.jobsManager(w)
	if mgr == nil {
		return
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	meta, created, err := mgr.Submit(body.Bytes())
	if err != nil {
		writeJobError(w, err)
		return
	}
	if created {
		w.WriteHeader(http.StatusAccepted)
	}
	WriteJSON(w, meta)
}

func (s *Service) handleJobList(w http.ResponseWriter, r *http.Request) {
	mgr := s.jobsManager(w)
	if mgr == nil {
		return
	}
	metas := mgr.List()
	if metas == nil {
		metas = []jobs.Meta{} // "jobs": [] rather than null
	}
	WriteJSON(w, jobListResponse{Jobs: metas})
}

func (s *Service) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	mgr := s.jobsManager(w)
	if mgr == nil {
		return
	}
	meta, err := mgr.Get(r.PathValue("id"))
	if err != nil {
		writeJobError(w, err)
		return
	}
	WriteJSON(w, meta)
}

// handleJobDelete cancels an active job; a terminal job is removed
// from the store instead. Either way the job's last status is the
// response.
func (s *Service) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	mgr := s.jobsManager(w)
	if mgr == nil {
		return
	}
	id := r.PathValue("id")
	meta, err := mgr.Get(id)
	if err != nil {
		writeJobError(w, err)
		return
	}
	if meta.State.Terminal() {
		if meta, err = mgr.Delete(id); err != nil {
			writeJobError(w, err)
			return
		}
	} else if meta, err = mgr.Cancel(id); err != nil {
		writeJobError(w, err)
		return
	}
	WriteJSON(w, meta)
}

// handleJobResults streams the job's NDJSON results from line
// ?offset=N (default 0), following the file as checkpoints land until
// the job is terminal. A failed or cancelled job terminates the stream
// with an {"error": ...} record, so a truncated result set is always
// distinguishable from a complete one.
func (s *Service) handleJobResults(w http.ResponseWriter, r *http.Request) {
	mgr := s.jobsManager(w)
	if mgr == nil {
		return
	}
	id := r.PathValue("id")
	offset := 0
	if q := r.URL.Query().Get("offset"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("api: offset %q must be a non-negative integer", q))
			return
		}
		offset = n
	}
	if _, err := mgr.Get(id); err != nil {
		writeJobError(w, err)
		return
	}
	w.Header().Set("Content-Type", NDJSONContentType)
	flusher, _ := w.(http.Flusher)
	// Commit the status line before following: a job with no durable
	// lines yet would otherwise leave the client (and any proxy
	// response-header timeout) staring at zero bytes until the first
	// checkpoint lands.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	meta, err := mgr.StreamResults(r.Context(), id, offset, func(line []byte) error {
		if err := r.Context().Err(); err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// If the client is still connected (the job vanished mid-follow,
		// or the store failed), terminate the stream with an error
		// record instead of a silent truncation; a dead client gets
		// nothing either way.
		if r.Context().Err() == nil {
			writeErrorRecord(w, err.Error())
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}
	switch meta.State {
	case jobs.Failed:
		writeErrorRecord(w, meta.Error)
	case jobs.Cancelled:
		writeErrorRecord(w, "job cancelled")
	}
	if flusher != nil {
		flusher.Flush()
	}
}
