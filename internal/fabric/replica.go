package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
)

// The replication wire protocol (leader → replica, documented in
// DESIGN.md "Failure model"). Every mutating request is stamped with
// the leader's term and identity:
//
//	PUT    /v1/replica/jobs/{id}             create/refresh a job (meta + canonical request)
//	POST   /v1/replica/jobs/{id}/checkpoint  append result lines [from, from+k) + meta
//	DELETE /v1/replica/jobs/{id}             remove a job
//	POST   /v1/replica/heartbeat             leader lease renewal {term, leader}
//	GET    /v1/replica/jobs/{id}             durable state (meta + line count)
//	GET    /v1/replica/status                term / leader / heartbeat age
//
// Checkpoint bodies reuse the sweep stream's CRC-32C line framing
// (api.AppendFrameLine): a byte flipped in flight fails the frame check on
// the replica and the write is rejected with 422 — the leader retries
// with fresh bytes. Status codes are the protocol's vocabulary:
//
//	412 stale term   {"term": T}   the writer is fenced; it must halt
//	409 line gap     {"lines": n}  replica is behind; backfill from n
//	404 unknown job                re-PUT the job, then retry
//	422 bad frame                  transient; resend
//	503 lease held                 replica-side executor still closing; retry
const (
	// HeaderReplicaTerm stamps a replication request with the writer's
	// leader term.
	HeaderReplicaTerm = "X-Replica-Term"
	// HeaderReplicaLeader stamps it with the writer's advertised URL.
	HeaderReplicaLeader = "X-Replica-Leader"
	// HeaderReplicaMeta carries the job meta of a checkpoint as compact
	// JSON (the body is reserved for the framed result lines).
	HeaderReplicaMeta = "X-Replica-Meta"
)

// ReplicaConfig configures a Replica.
type ReplicaConfig struct {
	// Store is the node's local job store replicated writes land in.
	Store *jobs.Store
	// OnTermAdvance, when non-nil, is called (outside the replica's
	// lock) whenever a request carries a term newer than any seen — the
	// signal that fences a stale local leader.
	OnTermAdvance func(term uint64, leader string)
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
}

// Replica is the receiving end of the replication plane: it applies
// term-fenced job mutations to the local store and tracks the current
// leader's lease. Every fleet node runs one — including the leader,
// whose own replica is how it learns it has been superseded.
type Replica struct {
	cfg ReplicaConfig

	mu     sync.Mutex
	term   uint64
	leader string
	beatAt time.Time
}

// NewReplica returns a replica over the store.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Store == nil {
		return nil, errors.New("fabric: replica needs a jobs.Store")
	}
	return &Replica{cfg: cfg, beatAt: time.Now()}, nil
}

// Term returns the highest term observed and the leader that holds it.
func (rp *Replica) Term() (uint64, string) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.term, rp.leader
}

// BeatAge returns how long ago the current leader last renewed its
// lease (heartbeat or any accepted write). Standbys promote when this
// exceeds the lease TTL.
func (rp *Replica) BeatAge() time.Duration {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return time.Since(rp.beatAt)
}

// SetTerm installs a term this node itself holds (promotion): later
// requests from older terms are fenced. It also resets the lease
// clock.
func (rp *Replica) SetTerm(term uint64, leader string) {
	rp.mu.Lock()
	if term > rp.term {
		rp.term, rp.leader = term, leader
	}
	rp.beatAt = time.Now()
	rp.mu.Unlock()
}

// errStaleTerm is the fencing rejection, carrying the term the writer
// lost to.
type errStaleTerm struct{ term uint64 }

func (e *errStaleTerm) Error() string {
	return fmt.Sprintf("fabric: write fenced by term %d", e.term)
}

// observe runs the fencing state machine for one request stamped
// (term, leader): older terms — or a different claimant of the current
// term — are rejected with the term to beat; the newest term advances
// the replica (firing OnTermAdvance); an accepted request renews the
// leader's lease.
func (rp *Replica) observe(term uint64, leader string) error {
	rp.mu.Lock()
	switch {
	case term < rp.term, term == rp.term && rp.leader != "" && leader != rp.leader:
		cur := rp.term
		rp.mu.Unlock()
		return &errStaleTerm{term: cur}
	case term > rp.term:
		rp.term, rp.leader = term, leader
		rp.beatAt = time.Now()
		rp.mu.Unlock()
		rp.logf("fabric: replica advanced to term %d (leader %s)", term, leader)
		if rp.cfg.OnTermAdvance != nil {
			rp.cfg.OnTermAdvance(term, leader)
		}
		return nil
	default:
		rp.leader = leader
		rp.beatAt = time.Now()
		rp.mu.Unlock()
		return nil
	}
}

func (rp *Replica) logf(format string, args ...any) {
	if rp.cfg.Logf != nil {
		rp.cfg.Logf(format, args...)
	}
}

// fence parses the request's term stamp and runs it through observe,
// writing the 412 itself when the writer is stale. Returns false when
// the request must not proceed.
func (rp *Replica) fence(w http.ResponseWriter, r *http.Request) bool {
	term, err := strconv.ParseUint(r.Header.Get(HeaderReplicaTerm), 10, 64)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("fabric: bad %s: %v", HeaderReplicaTerm, err))
		return false
	}
	if err := rp.observe(term, r.Header.Get(HeaderReplicaLeader)); err != nil {
		var stale *errStaleTerm
		if errors.As(err, &stale) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusPreconditionFailed)
			json.NewEncoder(w).Encode(struct {
				Term  uint64 `json:"term"`
				Error string `json:"error"`
			}{stale.term, err.Error()})
			return false
		}
		api.WriteError(w, http.StatusInternalServerError, err)
		return false
	}
	return true
}

// Routes mounts the /v1/replica/* surface on mux.
func (rp *Replica) Routes(mux *http.ServeMux) {
	mux.HandleFunc("PUT /v1/replica/jobs/{id}", rp.handleCreate)
	mux.HandleFunc("POST /v1/replica/jobs/{id}/checkpoint", rp.handleCheckpoint)
	mux.HandleFunc("DELETE /v1/replica/jobs/{id}", rp.handleDelete)
	mux.HandleFunc("GET /v1/replica/jobs/{id}", rp.handleStatus)
	mux.HandleFunc("POST /v1/replica/heartbeat", rp.handleHeartbeat)
	mux.HandleFunc("GET /v1/replica/status", rp.handleSelf)
}

// replicaJobBody is the PUT body: the job meta plus its canonical
// request bytes (which are themselves JSON, so they embed verbatim).
type replicaJobBody struct {
	Meta    jobs.Meta       `json:"meta"`
	Request json.RawMessage `json:"request"`
}

func (rp *Replica) handleCreate(w http.ResponseWriter, r *http.Request) {
	if !rp.fence(w, r) {
		return
	}
	id := r.PathValue("id")
	var body replicaJobBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&body); err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("fabric: bad replica job body: %w", err))
		return
	}
	if body.Meta.ID != id {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("fabric: body id %q != path id %q", body.Meta.ID, id))
		return
	}
	if jobs.IDFor(body.Request) != id {
		api.WriteError(w, http.StatusUnprocessableEntity, fmt.Errorf("fabric: request bytes do not hash to %q (corrupt in flight?)", id))
		return
	}
	// Create is atomic-rename idempotent: a re-PUT (the leader healing
	// a 404) refreshes request and meta in place.
	if err := rp.cfg.Store.Create(body.Meta, body.Request); err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	api.WriteJSON(w, struct {
		ID string `json:"id"`
	}{id})
}

func (rp *Replica) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !rp.fence(w, r) {
		return
	}
	id := r.PathValue("id")
	from, err := strconv.Atoi(r.URL.Query().Get("from"))
	if err != nil || from < 0 {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("fabric: checkpoint from %q must be a non-negative integer", r.URL.Query().Get("from")))
		return
	}
	var meta jobs.Meta
	if err := json.Unmarshal([]byte(r.Header.Get(HeaderReplicaMeta)), &meta); err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("fabric: bad %s: %v", HeaderReplicaMeta, err))
		return
	}
	if meta.ID != id {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("fabric: meta id %q != path id %q", meta.ID, id))
		return
	}
	if _, err := rp.cfg.Store.ReadMeta(id); errors.Is(err, jobs.ErrNotFound) {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("fabric: job %s not replicated here", id))
		return
	} else if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("fabric: reading checkpoint body: %w", err))
		return
	}
	// Unframe and verify every line before any byte lands: a corrupt
	// frame rejects the whole checkpoint (422) and the leader resends —
	// partial application would leave the replica claiming lines it
	// does not durably hold.
	lines, err := unframeAll(body)
	if err != nil {
		api.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	n, err := rp.cfg.Store.ApplyReplicated(id, from, lines, meta)
	var gap *jobs.ReplicaGapError
	switch {
	case errors.As(err, &gap):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(struct {
			Lines int    `json:"lines"`
			Error string `json:"error"`
		}{gap.Have, err.Error()})
		return
	case errors.Is(err, jobs.ErrLeaseHeld):
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	api.WriteJSON(w, struct {
		Lines int `json:"lines"`
	}{n})
}

// unframeAll verifies a body of CRC-32C framed result lines and
// returns the concatenated payload bytes.
func unframeAll(body []byte) ([]byte, error) {
	out := make([]byte, 0, len(body))
	for i := 0; len(body) > 0; i++ {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("fabric: checkpoint frame %d is torn (no newline)", i)
		}
		line, err := api.UnframeLine(body[:nl+1])
		if err != nil {
			return nil, fmt.Errorf("fabric: checkpoint frame %d: %w", i, err)
		}
		out = append(out, line...)
		body = body[nl+1:]
	}
	return out, nil
}

func (rp *Replica) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !rp.fence(w, r) {
		return
	}
	// A runner or a replica apply holding the job's lease has its
	// results file open: the leader retries instead (Retry-After).
	switch err := rp.cfg.Store.Remove(r.PathValue("id")); {
	case errors.Is(err, jobs.ErrLeaseHeld):
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStatus reports a replicated job's durable state: its meta plus
// how many complete result lines are on disk.
func (rp *Replica) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, err := rp.cfg.Store.ReadMeta(id)
	if errors.Is(err, jobs.ErrNotFound) {
		api.WriteError(w, http.StatusNotFound, err)
		return
	} else if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	lines, err := countLines(rp.cfg.Store.ResultsPath(id))
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	api.WriteJSON(w, struct {
		Meta  jobs.Meta `json:"meta"`
		Lines int       `json:"lines"`
	}{meta, lines})
}

// countLines counts complete ('\n'-terminated) lines; a missing file
// is zero lines.
func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, buf := 0, make([]byte, 64<<10)
	for {
		k, rerr := f.Read(buf)
		n += bytes.Count(buf[:k], []byte{'\n'})
		if rerr == io.EOF {
			return n, nil
		}
		if rerr != nil {
			return 0, rerr
		}
	}
}

// heartbeatBody is the lease-renewal payload.
type heartbeatBody struct {
	Term   uint64 `json:"term"`
	Leader string `json:"leader"`
}

func (rp *Replica) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb heartbeatBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<10)).Decode(&hb); err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("fabric: bad heartbeat: %w", err))
		return
	}
	if err := rp.observe(hb.Term, hb.Leader); err != nil {
		var stale *errStaleTerm
		if errors.As(err, &stale) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusPreconditionFailed)
			json.NewEncoder(w).Encode(struct {
				Term uint64 `json:"term"`
			}{stale.term})
			return
		}
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	term, leader := rp.Term()
	api.WriteJSON(w, struct {
		Term   uint64 `json:"term"`
		Leader string `json:"leader"`
	}{term, leader})
}

// handleSelf reports this replica's view of the lease.
func (rp *Replica) handleSelf(w http.ResponseWriter, r *http.Request) {
	rp.mu.Lock()
	term, leader, age := rp.term, rp.leader, time.Since(rp.beatAt)
	rp.mu.Unlock()
	api.WriteJSON(w, struct {
		Term      uint64 `json:"term"`
		Leader    string `json:"leader"`
		BeatAgeMS int64  `json:"beatAgeMs"`
	}{term, leader, age.Milliseconds()})
}
