package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/api"
)

// Handler mounts the coordinator's distributed /v1/sweep over an inner
// handler (normally api.NewServer of the local service): sweeps fan out
// across the fleet; every other route — point endpoints, /healthz, the
// /v1/jobs lifecycle — falls through to the inner handler unchanged.
func (c *Coordinator) Handler(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("/v1/sweep", c.handleSweep)
	mux.HandleFunc("/readyz", c.handleReady)
	return mux
}

// handleReady overlays the coordinator's fleet view on the local
// service's readiness report: the node is degraded when the service
// says so (saturated job queue) OR any worker circuit is non-closed —
// sweeps still complete (survivors absorb ranges, local fallback
// covers a dark fleet) but with reduced capacity. /healthz stays a
// plain liveness probe; only /readyz carries the degradation signal.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	st := struct {
		api.ReadyStatus
		Fleet FleetStatus `json:"fleet"`
	}{c.cfg.Service.ReadyStatus(), c.Status()}
	st.Degraded = st.Degraded || st.Fleet.Degraded
	api.WriteReady(w, st)
}

// handleSweep is the coordinator-mode twin of the single-node /v1/sweep
// handler: same request language (the body is normalized through the
// job normalizer, so validation matches), same ?offset=&limit= range
// selection, same streaming and non-streaming response shapes — and, by
// the merge invariants, the same response bytes a single node produces.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, errors.New("use POST with a JSON body"))
		return
	}
	offset, limit, err := api.RangeParams(r)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	// Normalizing first means the byte payload dispatched to every
	// worker is the canonical request, so worker-side grid expansion
	// and point keys are exactly the coordinator's.
	sweep, err := c.cfg.Service.NormalizeSweep(body.Bytes())
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	total := len(sweep.Keys)
	if offset > total {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("fabric: offset %d outside the %d-point grid", offset, total))
		return
	}
	end := total
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}

	if r.Header.Get("Accept") == api.NDJSONContentType {
		c.streamSweep(w, r, sweep, offset, end)
		return
	}
	items := make([]api.SweepItem, 0, end-offset)
	err = c.run(r.Context(), sweep, offset, end, func(line []byte) error {
		var item api.SweepItem
		if err := json.Unmarshal(line, &item); err != nil {
			return fmt.Errorf("fabric: worker line undecodable: %w", err)
		}
		items = append(items, item)
		return nil
	}, nil)
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, err)
		return
	}
	w.Header().Set(api.HeaderSweepPoints, strconv.Itoa(len(items)))
	api.WriteJSON(w, struct {
		Items []api.SweepItem `json:"items"`
	}{items})
}

// streamSweep streams the merged worker lines as they land — in
// canonical grid order, byte-identical to the single-node stream. Each
// run of lines the merger drains at once is flushed once, not line by
// line. Cache hit/miss trailers are omitted (they are per-worker
// facts); the point count trailer is kept.
func (c *Coordinator) streamSweep(w http.ResponseWriter, r *http.Request, sweep api.NormalizedSweep, from, to int) {
	w.Header().Set("Trailer", api.HeaderSweepPoints)
	w.Header().Set("Content-Type", api.NDJSONContentType)
	framed := r.Header.Get(api.HeaderSweepIntegrity) == api.IntegrityCRC32C
	flush := func() {}
	if flusher, ok := w.(http.Flusher); ok {
		flush = flusher.Flush
	}
	wrote := 0
	err := c.run(r.Context(), sweep, from, to, func(line []byte) error {
		if err := r.Context().Err(); err != nil {
			return err
		}
		if framed {
			line = api.FrameLine(line)
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
		wrote++
		return nil
	}, flush)
	if err != nil {
		if wrote == 0 {
			api.WriteError(w, http.StatusBadGateway, err)
			return
		}
		// Mid-stream failure: mirror the single-node handler's terminal
		// {"error": ...} record so truncation is always detectable.
		json.NewEncoder(w).Encode(struct {
			Error string `json:"error"`
		}{err.Error()})
		flush()
		return
	}
	w.Header().Set(api.HeaderSweepPoints, strconv.Itoa(wrote))
}
