package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
)

// Role is a fleet node's place in the leader lease.
type Role string

const (
	// RoleLeader executes jobs and replicates every durable mutation.
	RoleLeader Role = "leader"
	// RoleStandby holds replicated job copies and watches the leader's
	// lease, promoting when it expires.
	RoleStandby Role = "standby"
	// RoleFenced is the transient state of an ex-leader that has
	// observed a newer term and is halting its write path.
	RoleFenced Role = "fenced"
)

// HAConfig configures an HA controller.
type HAConfig struct {
	// Self is this node's advertised URL; it must appear in Peers.
	Self string
	// Peers lists every fleet node's URL — including Self — in the same
	// order on every node. The order is the deterministic promotion
	// order: when the leader's lease expires, the surviving peers
	// promote in list order, each waiting one PromoteStagger longer
	// than its predecessor, so exactly one wins without an election.
	Peers []string
	// Store is the node's local job store (the replica writes into it;
	// a promotion builds the new leader's manager over it).
	Store *jobs.Store
	// Client issues heartbeats and replication writes (default
	// http.DefaultClient).
	Client *http.Client
	// HeartbeatEvery is the leader's lease-renewal period (default 1s).
	HeartbeatEvery time.Duration
	// LeaseTTL is how stale the leader's heartbeat may grow before
	// standbys begin promoting (default 4 × HeartbeatEvery).
	LeaseTTL time.Duration
	// PromoteStagger separates consecutive standbys' promotion
	// deadlines (default LeaseTTL / 2).
	PromoteStagger time.Duration
	// Quorum is the peer-ack write quorum handed to the leader's
	// Replicator, and the heartbeat-ack count a promotion needs
	// (default: cluster majority minus the leader itself).
	Quorum int
	// Attempts / Backoff / Timeout tune the Replicator's per-peer
	// retries and per-request deadline.
	Attempts int
	Backoff  time.Duration
	Timeout  time.Duration
	// Leader starts this node as the cluster's initial leader at term 1
	// (exactly one node per fleet).
	Leader bool
	// OnPromote takes this node to leader at the given term: it builds
	// the execution plane (a jobs.Manager over Store with repl as its
	// ReplicationSink) and returns the function that tears it down
	// again when the node is fenced. An error aborts the promotion.
	OnPromote func(term uint64, repl *Replicator) (demote func(), err error)
	// Logf receives role transitions and lease events. Nil discards.
	Logf func(format string, args ...any)
}

// HA runs the term-numbered leader lease over a fleet: one controller
// per node. The leader renews its lease by heartbeating every peer;
// standbys watch their local replica's lease clock and promote — in
// deterministic, staggered order — when it expires. Fencing is
// delegated to the replication plane: every write and heartbeat
// carries a term, replicas reject stale ones, and a rejected leader
// demotes itself instead of split-brain double-appending.
type HA struct {
	cfg     HAConfig
	replica *Replica

	mu      sync.Mutex
	role    Role
	term    uint64
	leader  string
	repl    *Replicator
	demote  func()
	hbAcks  int // peer acks in the last heartbeat round (leader only)
	fenceCh chan uint64
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewHA validates the config and builds the controller (and its
// replica). Call Start to join the fleet.
func NewHA(cfg HAConfig) (*HA, error) {
	if cfg.Store == nil {
		return nil, errors.New("fabric: HA needs a jobs.Store")
	}
	selfAt := -1
	for i, p := range cfg.Peers {
		if p == cfg.Self {
			selfAt = i
		}
	}
	if selfAt < 0 {
		return nil, fmt.Errorf("fabric: self %q not in peers %v", cfg.Self, cfg.Peers)
	}
	if len(cfg.Peers) < 2 {
		return nil, errors.New("fabric: HA needs at least 2 peers")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 4 * cfg.HeartbeatEvery
	}
	if cfg.PromoteStagger <= 0 {
		cfg.PromoteStagger = cfg.LeaseTTL / 2
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = len(cfg.Peers) / 2 // majority of n, minus the leader itself
	}
	h := &HA{
		cfg:     cfg,
		role:    RoleStandby,
		fenceCh: make(chan uint64, 4),
		done:    make(chan struct{}),
	}
	rp, err := NewReplica(ReplicaConfig{
		Store: cfg.Store,
		Logf:  cfg.Logf,
		OnTermAdvance: func(term uint64, leader string) {
			// A newer term on the wire is the fencing signal; the run
			// loop demotes if this node thought it was leading.
			select {
			case h.fenceCh <- term:
			default:
			}
		},
	})
	if err != nil {
		return nil, err
	}
	h.replica = rp
	return h, nil
}

// Replica returns the node's replica (for mounting its routes
// standalone; Handler does it automatically).
func (h *HA) Replica() *Replica { return h.replica }

func (h *HA) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

// Start joins the fleet: the configured initial leader promotes itself
// at term 1 (no quorum needed — nothing was ever replicated at term
// 0), everyone else starts standby with a fresh lease clock.
func (h *HA) Start() error {
	if h.cfg.Leader {
		if err := h.promote(1); err != nil {
			return err
		}
	}
	h.wg.Add(1)
	go h.run()
	return nil
}

// Close stops the controller's goroutine. It does NOT demote a leader
// gracefully — closing is how tests model a crash; the execution plane
// is torn down by its owner.
func (h *HA) Close() {
	close(h.done)
	h.wg.Wait()
}

func (h *HA) run() {
	defer h.wg.Done()
	tick := h.cfg.HeartbeatEvery
	if q := h.cfg.LeaseTTL / 4; q < tick {
		tick = q
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var lastBeat time.Time
	for {
		select {
		case <-h.done:
			return
		case term := <-h.fenceCh:
			h.stepDown(term)
		case <-ticker.C:
			h.mu.Lock()
			role := h.role
			h.mu.Unlock()
			switch role {
			case RoleLeader:
				if time.Since(lastBeat) >= h.cfg.HeartbeatEvery {
					lastBeat = time.Now()
					if fencedBy := h.sendHeartbeats(); fencedBy > 0 {
						h.stepDown(fencedBy)
					}
				}
			case RoleStandby:
				h.maybePromote()
			}
		}
	}
}

// sendHeartbeats renews the lease on every peer, returning the fencing
// term if any peer knows a newer leader.
func (h *HA) sendHeartbeats() (fencedBy uint64) {
	h.mu.Lock()
	term := h.term
	h.mu.Unlock()
	acks, fenced := h.heartbeatRound(term, h.cfg.Self)
	h.mu.Lock()
	h.hbAcks = acks
	h.mu.Unlock()
	return fenced
}

// heartbeatRound POSTs {term, leader} to every peer but self and
// counts acks; the largest fencing term seen (0 if none) is returned.
func (h *HA) heartbeatRound(term uint64, leader string) (acks int, fencedBy uint64) {
	body, _ := json.Marshal(heartbeatBody{Term: term, Leader: leader})
	type result struct {
		ok    bool
		fence uint64
	}
	var peers []string
	for _, p := range h.cfg.Peers {
		if p != h.cfg.Self {
			peers = append(peers, p)
		}
	}
	results := make(chan result, len(peers))
	for _, peer := range peers {
		go func(peer string) {
			ctx, cancel := timeoutContext(h.cfg.LeaseTTL)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/replica/heartbeat", bytes.NewReader(body))
			if err != nil {
				results <- result{}
				return
			}
			resp, err := h.cfg.Client.Do(req)
			if err != nil {
				results <- result{}
				return
			}
			defer drain(resp)
			if resp.StatusCode == http.StatusPreconditionFailed {
				var b struct {
					Term uint64 `json:"term"`
				}
				json.NewDecoder(resp.Body).Decode(&b)
				results <- result{fence: b.Term}
				return
			}
			results <- result{ok: resp.StatusCode == http.StatusOK}
		}(peer)
	}
	for range peers {
		res := <-results
		if res.ok {
			acks++
		}
		if res.fence > fencedBy {
			fencedBy = res.fence
		}
	}
	return acks, fencedBy
}

// maybePromote checks the lease clock and, once this node's staggered
// deadline has passed, claims the next term with a quorum heartbeat.
func (h *HA) maybePromote() {
	age := h.replica.BeatAge()
	if age < h.cfg.LeaseTTL {
		return
	}
	_, leader := h.replica.Term()
	rank := 0
	for _, p := range h.cfg.Peers {
		if p == h.cfg.Self {
			break
		}
		if p != leader {
			rank++ // live candidates ahead of us in promotion order
		}
	}
	if age < h.cfg.LeaseTTL+time.Duration(rank)*h.cfg.PromoteStagger {
		return
	}
	seen, _ := h.replica.Term()
	term := seen + 1
	// The claim is itself the fencing write: peers at an older term
	// adopt this one on receipt, and any peer that knows a newer term
	// rejects it, teaching us. Commit only with a quorum of acks, so
	// two candidates racing the same term cannot both win (the replicas
	// accept one claimant per term).
	acks, fencedBy := h.heartbeatRound(term, h.cfg.Self)
	if fencedBy > term {
		h.logf("fabric: %s promotion to term %d lost to term %d", h.cfg.Self, term, fencedBy)
		h.replica.observe(fencedBy, "")
		return
	}
	if acks < h.cfg.Quorum {
		h.logf("fabric: %s promotion to term %d got %d/%d acks; standing by", h.cfg.Self, term, acks, h.cfg.Quorum)
		return
	}
	if err := h.promote(term); err != nil {
		h.logf("fabric: %s promotion to term %d failed: %v", h.cfg.Self, term, err)
	}
}

// promote takes this node to leader at term.
func (h *HA) promote(term uint64) error {
	var peers []string
	for _, p := range h.cfg.Peers {
		if p != h.cfg.Self {
			peers = append(peers, p)
		}
	}
	repl, err := NewReplicator(ReplicatorConfig{
		Self:     h.cfg.Self,
		Peers:    peers,
		Store:    h.cfg.Store,
		Client:   h.cfg.Client,
		Quorum:   h.cfg.Quorum,
		Attempts: h.cfg.Attempts,
		Backoff:  h.cfg.Backoff,
		Timeout:  h.cfg.Timeout,
		Logf:     h.cfg.Logf,
		OnFenced: func(t uint64) {
			select {
			case h.fenceCh <- t:
			default:
			}
		},
	})
	if err != nil {
		return err
	}
	repl.SetTerm(term)
	h.replica.SetTerm(term, h.cfg.Self)
	demote, err := h.cfg.OnPromote(term, repl)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.role, h.term, h.leader = RoleLeader, term, h.cfg.Self
	h.repl, h.demote = repl, demote
	h.hbAcks = len(peers) // optimistic until the first round reports
	h.mu.Unlock()
	h.logf("fabric: %s promoted to leader at term %d", h.cfg.Self, term)
	// Announce immediately so the standbys' lease clocks reset before
	// their own staggered deadlines fire.
	h.heartbeatRound(term, h.cfg.Self)
	return nil
}

// stepDown demotes a fenced leader: halt the write path, tear down the
// execution plane, rejoin as standby under the new term.
func (h *HA) stepDown(newTerm uint64) {
	h.mu.Lock()
	if h.role != RoleLeader || newTerm <= h.term {
		h.mu.Unlock()
		return
	}
	h.role = RoleFenced
	demote := h.demote
	h.repl, h.demote = nil, nil
	oldTerm := h.term
	h.mu.Unlock()
	h.logf("fabric: %s (term %d) fenced by term %d; demoting", h.cfg.Self, oldTerm, newTerm)
	if demote != nil {
		demote()
	}
	h.replica.observe(newTerm, "")
	h.mu.Lock()
	h.role = RoleStandby
	h.term = newTerm
	h.mu.Unlock()
	h.logf("fabric: %s rejoined as standby at term %d", h.cfg.Self, newTerm)
}

// HAStatus is the controller's /readyz overlay.
type HAStatus struct {
	Role   Role   `json:"role"`
	Term   uint64 `json:"term"`
	Leader string `json:"leader"`
	// BeatAgeMS is how stale the leader's lease is from this node's
	// view (standby) or since this leader's own last accepted write.
	BeatAgeMS int64 `json:"beatAgeMs"`
	// Quorum and QuorumOK report the write-quorum health (leader only:
	// peer acks in the last heartbeat round vs the required quorum).
	Quorum   int  `json:"quorum,omitempty"`
	QuorumOK bool `json:"quorumOk"`
	// Peers is the leader's per-replica lag view.
	Peers []ReplicaPeerStatus `json:"peers,omitempty"`
}

// Status reports the node's role, term and replication health.
func (h *HA) Status() HAStatus {
	h.mu.Lock()
	role, term, repl, hbAcks := h.role, h.term, h.repl, h.hbAcks
	h.mu.Unlock()
	seenTerm, leader := h.replica.Term()
	if seenTerm > term {
		term = seenTerm
	}
	st := HAStatus{
		Role:      role,
		Term:      term,
		Leader:    leader,
		BeatAgeMS: h.replica.BeatAge().Milliseconds(),
		QuorumOK:  true,
	}
	if role == RoleLeader && repl != nil {
		st.Quorum = h.cfg.Quorum
		peers, replOK := repl.Status()
		st.Peers = peers
		st.QuorumOK = replOK && hbAcks >= h.cfg.Quorum
	}
	return st
}

// Role returns the node's current role.
func (h *HA) Role() Role {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.role
}

// Term returns the node's current term (the highest seen).
func (h *HA) Term() uint64 {
	h.mu.Lock()
	term := h.term
	h.mu.Unlock()
	if seen, _ := h.replica.Term(); seen > term {
		return seen
	}
	return term
}

// Handler mounts the node's replication surface (/v1/replica/*) and
// the HA-aware /readyz over an inner handler: the inner report is
// decoded and an "ha" section — role, term, leader, peer lag, quorum
// health — is merged in. A leader that cannot reach a write quorum of
// replicas reports degraded: it is still correct (un-acked checkpoints
// fail loudly) but one disk from losing new work.
func (h *HA) Handler(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	h.replica.Routes(mux)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		rec := &readyRecorder{header: make(http.Header), code: http.StatusOK}
		inner.ServeHTTP(rec, r)
		var report map[string]any
		if err := json.Unmarshal(rec.buf.Bytes(), &report); err != nil {
			// Inner /readyz is not JSON (unexpected): pass it through.
			for k, v := range rec.header {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.code)
			w.Write(rec.buf.Bytes())
			return
		}
		st := h.Status()
		report["ha"] = st
		if st.Role == RoleLeader && !st.QuorumOK {
			report["degraded"] = true
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			api.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.code)
		w.Write(append(data, '\n'))
	})
	return mux
}

// readyRecorder captures the inner /readyz response for the overlay.
type readyRecorder struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (r *readyRecorder) Header() http.Header         { return r.header }
func (r *readyRecorder) WriteHeader(code int)        { r.code = code }
func (r *readyRecorder) Write(p []byte) (int, error) { return r.buf.Write(p) }
