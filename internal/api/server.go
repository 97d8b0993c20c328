package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/jobs"
)

// Sweep metadata headers. They carry SweepStats out of band so that
// repeated identical sweeps return byte-identical bodies (the
// cache-determinism guarantee the tests pin down). On streaming
// responses they are sent as HTTP trailers.
const (
	HeaderSweepPoints = "X-Sweep-Points"
	HeaderSweepHits   = "X-Sweep-Cache-Hits"
	HeaderSweepMisses = "X-Sweep-Cache-Misses"
)

// NDJSONContentType is the Accept value selecting the streaming
// /v1/sweep response: one SweepItem JSON object per line, emitted in
// grid order as points complete.
const NDJSONContentType = "application/x-ndjson"

// NewServer mounts the service's endpoints plus /healthz on a new
// mux. The point endpoints take a POST with a JSON body and return
// JSON; errors are {"error": "..."} with a 4xx/5xx status. The
// /v1/jobs lifecycle endpoints are always mounted but answer 503
// until a job manager is attached (AttachJobs) — an HA standby mounts
// its routes long before promotion hands it a manager.
func NewServer(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/waste", handlePoint(s.Waste))
	mux.HandleFunc("/v1/optimum", handlePoint(s.Optimum))
	mux.HandleFunc("/v1/risk", handlePoint(s.Risk))
	mux.HandleFunc("/v1/sweep", SweepHandler(s.planSweep, false))
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	return mux
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// errorRecordPrefix starts the {"error": ...} record that ends a failed
// NDJSON stream. No SweepItem line starts this way (its first field is
// "protocol"), and an integrity-framed line starts with hex digits.
var errorRecordPrefix = []byte(`{"error":`)

// writeErrorRecord ends an NDJSON stream with the {"error": ...}
// record. Error records are never integrity-framed (see integrity.go).
func writeErrorRecord(w io.Writer, msg string) {
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// IsErrorRecord reports whether a streamed line is the {"error": ...}
// record that ends a failed /v1/sweep or job-results stream.
func IsErrorRecord(line []byte) bool { return bytes.HasPrefix(line, errorRecordPrefix) }

// WriteError writes err as the {"error": ...} envelope with the given
// status. The fabric coordinator's handlers answer through it too, so
// every node speaks one error shape.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

// WriteJSON marshals v before touching the ResponseWriter, so an
// encoding failure becomes a 500 error body instead of a silent empty
// 200.
func WriteJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// decodeRequest parses a JSON request body, rejecting unknown fields
// so typos fail loudly. An empty body decodes to the zero request.
func decodeRequest(r *http.Request, v any) error {
	return decodeStrict(http.MaxBytesReader(nil, r.Body, 1<<20), v)
}

// decodeStrict is the shared strict JSON decoder: unknown fields are
// rejected, an empty document decodes to the zero value, and anything
// but whitespace after the document is rejected — a second document
// or trailing garbage would otherwise be silently ignored. Job
// submissions run through it too, so the job path accepts exactly the
// request language of /v1/sweep.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("invalid request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid request: trailing data after the JSON document")
	}
	return nil
}

// handlePoint adapts a closed-form service method into an HTTP
// handler.
func handlePoint[T any](eval func(PointRequest) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST with a JSON body"))
			return
		}
		var req PointRequest
		if err := decodeRequest(r, &req); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := eval(req)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, resp)
	}
}

// rangeParams parses the optional ?offset=&limit= query parameters
// selecting a contiguous sub-range of the sweep grid — the wire format
// a fabric coordinator dispatches point ranges to its workers with, and
// serves itself, so a coordinator can be dispatched to as a worker
// tier. Absent parameters select the whole grid (offset 0, limit -1),
// so the historical /v1/sweep surface is unchanged.
func rangeParams(r *http.Request) (offset, limit int, err error) {
	offset, limit = 0, -1
	if q := r.URL.Query().Get("offset"); q != "" {
		if offset, err = strconv.Atoi(q); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("api: offset %q must be a non-negative integer", q)
		}
	}
	if q := r.URL.Query().Get("limit"); q != "" {
		if limit, err = strconv.Atoi(q); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("api: limit %q must be a non-negative integer", q)
		}
	}
	return offset, limit, nil
}

// SweepRun streams one planned /v1/sweep range. It emits each point's
// NDJSON line (newline-terminated, valid until emit returns) in grid
// order, and calls stalled, when non-nil, whenever its next line is not
// ready yet. emit and stalled are never called concurrently, nor after
// the run returns. The stats' Points is the size of the range.
type SweepRun func(ctx context.Context, emit func(line []byte) error, stalled func()) (SweepStats, error)

// SweepHandler serves the /v1/sweep contract over a line source; a
// single node (NewServer) and a fabric coordinator differ only in the
// plan they mount. plan turns the request body and its ?offset=&limit=
// range (limit < 0 runs to the end of the grid) into the run that
// streams it; a plan error is a 400. relay marks a source whose lines
// were evaluated by other nodes: a run failing before its first line
// is then a 502 rather than a 400, and the response carries no cache
// counts, which only the evaluating nodes know.
//
// With Accept: application/x-ndjson the lines stream as they come and
// the stats follow as HTTP trailers. Lines are flushed to the client
// only when the run stalls, and once at the end: a run of ready points
// (cache hits, a range evaluated in parallel, a merged burst of worker
// lines) leaves in as few writes as the response buffer allows, while
// a line never waits on a point still computing. A cancelled request
// context is checked before every write, so a disconnected client
// aborts the run promptly. A run failing after its first line ends the
// stream with a flushed {"error": ...} record instead of a silent
// truncation. HeaderSweepIntegrity frames every line with its CRC-32C.
// A ranged stream carries byte-for-byte the lines a full-grid stream
// carries at those positions, which is what lets a coordinator merge
// worker ranges back into a byte-identical single-node response.
//
// Otherwise the lines are collected into the {"items": [...]} JSON
// body, indented exactly as WriteJSON would indent the decoded items,
// and the stats are sent as headers.
func SweepHandler(plan func(body []byte, offset, limit int) (SweepRun, error), relay bool) http.HandlerFunc {
	failStatus, trailers := http.StatusBadRequest, HeaderSweepPoints+", "+HeaderSweepHits+", "+HeaderSweepMisses
	if relay {
		failStatus, trailers = http.StatusBadGateway, HeaderSweepPoints
	}
	setStats := func(h http.Header, stats SweepStats) {
		h.Set(HeaderSweepPoints, strconv.Itoa(stats.Points))
		if !relay {
			h.Set(HeaderSweepHits, strconv.Itoa(stats.CacheHits))
			h.Set(HeaderSweepMisses, strconv.Itoa(stats.CacheMisses))
		}
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST with a JSON body"))
			return
		}
		offset, limit, err := rangeParams(r)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid request: %w", err))
			return
		}
		run, err := plan(body, offset, limit)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}

		if r.Header.Get("Accept") != NDJSONContentType {
			items := append(make([]byte, 0, 4<<10), `{"items":[`...)
			stats, err := run(r.Context(), func(line []byte) error {
				if items[len(items)-1] != '[' {
					items = append(items, ',')
				}
				items = append(items, line...)
				return nil
			}, nil)
			if err != nil {
				WriteError(w, failStatus, err)
				return
			}
			var out bytes.Buffer
			out.Grow(2 * len(items))
			if err := json.Indent(&out, append(items, "]}"...), "", "  "); err != nil {
				WriteError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
				return
			}
			out.WriteByte('\n')
			setStats(w.Header(), stats)
			w.Header().Set("Content-Type", "application/json")
			w.Write(out.Bytes())
			return
		}

		w.Header().Set("Trailer", trailers)
		w.Header().Set("Content-Type", NDJSONContentType)
		framed := r.Header.Get(HeaderSweepIntegrity) == IntegrityCRC32C
		flusher, _ := w.(http.Flusher)
		// Only written lines are flushed: a flush before the first line
		// would commit the 200 status that an early error must replace.
		unflushed := false
		flush := func() {
			if unflushed && flusher != nil {
				flusher.Flush()
			}
			unflushed = false
		}
		var frame []byte // reused integrity-framing scratch
		wrote := false
		stats, err := run(r.Context(), func(line []byte) error {
			if err := r.Context().Err(); err != nil {
				return err
			}
			if framed {
				frame = AppendFrameLine(frame[:0], line)
				line = frame
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
			wrote, unflushed = true, true
			return nil
		}, flush)
		if err != nil {
			if !wrote {
				WriteError(w, failStatus, err)
				return
			}
			// The status line is already sent, so the error becomes the
			// final NDJSON record.
			writeErrorRecord(w, err.Error())
			unflushed = true
		}
		setStats(w.Header(), stats)
		flush()
	}
}

// planSweep is the single-node /v1/sweep source: the body's cached
// plan, run over the requested range at interactive priority.
func (s *Service) planSweep(body []byte, offset, limit int) (SweepRun, error) {
	pl, err := s.planBody(body)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, emit func(line []byte) error, stalled func()) (SweepStats, error) {
		return s.runLines(ctx, pl, offset, limit, jobs.Interactive, nil, emit, stalled)
	}, nil
}

// healthResponse is the /healthz body: liveness plus the service's
// cache and simulation counters.
type healthResponse struct {
	OK          bool   `json:"ok"`
	CacheLen    int    `json:"cacheLen"`
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	SimPoints   uint64 `json:"simPoints"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.Stats()
	WriteJSON(w, healthResponse{
		OK:          true,
		CacheLen:    s.cache.Len(),
		CacheHits:   hits,
		CacheMisses: misses,
		SimPoints:   s.SimPoints(),
	})
}

// ReadyStatus is the /readyz report. It is deliberately distinct from
// /healthz: health is liveness ("the process answers"), readiness is
// load acceptance ("send this node work"). A node can be alive and
// healthy yet degraded — its job queue saturated, or (behind a fabric
// coordinator, which overlays its own fleet view) its workers dark.
type ReadyStatus struct {
	// Ready reports whether the node accepts work at all; a false value
	// is served with a 503 so load balancers take the node out of
	// rotation.
	Ready bool `json:"ready"`
	// Degraded reports reduced capacity — still serving, still correct,
	// but shedding or absorbing load (saturated job queue, open worker
	// circuits). Degraded nodes stay in rotation.
	Degraded bool `json:"degraded"`
	// Jobs carries the job subsystem's load snapshot when a manager is
	// attached.
	Jobs *jobs.Stats `json:"jobs,omitempty"`
}

// ReadyStatus returns the service's readiness: degraded when the job
// queue is saturated (new submissions are being shed with 503s).
func (s *Service) ReadyStatus() ReadyStatus {
	st := ReadyStatus{Ready: true}
	if mgr := s.Jobs(); mgr != nil {
		js := mgr.Stats()
		st.Jobs = &js
		st.Degraded = js.Saturated
	}
	return st
}

func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	WriteReady(w, s.ReadyStatus())
}

// WriteReady serves a readiness report with its HTTP status contract
// (503 only when not ready). The fabric coordinator reuses it for the
// fleet-aware /readyz it overlays on this one.
func WriteReady(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if ready, ok := v.(interface{ IsReady() bool }); ok && !ready.IsReady() {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(append(data, '\n'))
}

// IsReady lets WriteReady pick the status code for this report and any
// struct embedding it.
func (r ReadyStatus) IsReady() bool { return r.Ready }
