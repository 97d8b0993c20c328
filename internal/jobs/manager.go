package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrQueueFull marks a submission rejected because the pending-job
// queue is at its configured bound. The HTTP layer maps it to 503
// with a Retry-After: the job was NOT created and an identical
// resubmission later will succeed (or dedupe) normally.
var ErrQueueFull = errors.New("jobs: job queue is full")

// Executor runs one job's request from a point offset: it must emit
// exactly one '\n'-terminated NDJSON line per completed point, in the
// request's deterministic point order, starting at point `offset`
// (the lines before it are already durable). start is called once,
// before any emission, with the request's total point count. A
// deterministic executor — same request, same offset, same line bytes
// — is what makes a resumed job bitwise identical to an uninterrupted
// one.
type Executor func(ctx context.Context, request []byte, offset int, start func(total int) error, emit func(line []byte) error) error

// Normalizer validates a raw request and returns its canonical bytes
// (the content key: identical sweeps must canonicalize identically)
// and total point count. Errors are request errors (HTTP 400).
type Normalizer func(request []byte) (canonical []byte, total int, err error)

// Config configures a Manager.
type Config struct {
	// Dir is the durable job directory.
	Dir string
	// MaxConcurrent bounds jobs executing simultaneously (default 1).
	// Point-level parallelism inside each job is governed by the shared
	// Pool, not by this knob.
	MaxConcurrent int
	// CheckpointEvery flushes+fsyncs the results file and persists the
	// progress marker every N completed points (default 16).
	CheckpointEvery int
	// MaxQueued bounds the number of jobs awaiting execution: a
	// submission that would create a NEW job while the queue is at the
	// bound is rejected with ErrQueueFull. Deduped resubmissions of
	// known jobs are never rejected — refusing them would lose no work
	// and help no one. Zero means unbounded.
	MaxQueued int
	// Exec executes job requests.
	Exec Executor
	// Normalize canonicalizes and validates submissions.
	Normalize Normalizer
	// ResultsAppendHook, when non-nil, transforms each result line's
	// bytes on their way to disk. Checksums are computed on the true
	// line BEFORE the hook runs, so whatever the hook changes is
	// media corruption the next recovery's integrity scan must catch.
	// Fault injection only; production paths leave it nil.
	ResultsAppendHook func(line []byte) []byte
	// Replicate, when non-nil, receives every durable mutation — job
	// creation, each checkpoint flush with its result-line suffix, job
	// removal — and must not return nil until the mutation is durable
	// on a write quorum of peers (see ReplicationSink). A checkpoint
	// the sink rejects fails the job; the lines stay durable locally
	// and the job resumes wherever the quorum survives. Nil (the
	// single-node default) adds zero cost to the emit path.
	Replicate ReplicationSink
	// JanitorSeed is read by nothing. It seeded the rescan jitter of a
	// goroutine that mirrored the jobs of sibling managers sharing one
	// directory; that mode is gone (one Manager per directory), and the
	// field stays only because the benchmark harness still sets it.
	//
	// Deprecated: has no effect; it will be deleted once no caller
	// sets it.
	JanitorSeed int64
	// now stamps Meta times; tests may override. Nil uses time.Now.
	now func() time.Time
}

// job is the in-memory side of one job.
type job struct {
	meta            Meta
	cancelRequested bool
	cancel          context.CancelFunc // non-nil while running
	// creating is true while Submit is still making the job durable
	// (the directory may not exist yet): Cancel defers its disk write
	// to Submit's completion and runners cannot see the job (it is not
	// queued until creating clears).
	creating bool
	subs     map[chan struct{}]struct{}
	// runner is closed once the runner that picked the job up has
	// released its lease; nil until one does.
	runner chan struct{}
}

// Manager owns the job lifecycle: it persists submissions through a
// Store, schedules them over MaxConcurrent runner goroutines, streams
// their results to followers, and resumes interrupted jobs on
// restart. It is the only manager of its directory for its lifetime.
// All methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	store *Store

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// unlock releases the directory's .manager lock; closeOnce runs
	// Close's body, and with it unlock, once.
	unlock    func()
	closeOnce sync.Once

	mu     sync.Mutex
	cond   *sync.Cond // signals runners that queue/closed changed
	jobs   map[string]*job
	queue  []string // pending job ids, FIFO
	closed bool
}

// NewManager opens the job directory, recovers persisted jobs —
// running jobs from a previous process go back to pending and will
// resume from their last durable point — and starts the runner
// goroutines. A directory has at most one live Manager, which holds a
// flock on <dir>/.manager until Close: a second NewManager over it
// fails until the first is closed.
func NewManager(cfg Config) (m *Manager, err error) {
	if cfg.Exec == nil || cfg.Normalize == nil {
		return nil, errors.New("jobs: manager needs Exec and Normalize")
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.CheckpointEvery < 1 {
		cfg.CheckpointEvery = 16
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	store, err := NewStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	// The lock lives here, not in NewStore: an HA node's replica opens
	// its own Store over the same directory in the same process.
	unlock, err := acquireLease(filepath.Join(cfg.Dir, ".manager"))
	if errors.Is(err, ErrLeaseHeld) {
		return nil, fmt.Errorf("jobs: job directory %s is in use by another manager", cfg.Dir)
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: locking job directory %s: %w", cfg.Dir, err)
	}
	defer func() {
		if err != nil {
			unlock()
		}
	}()
	m = &Manager{cfg: cfg, store: store, unlock: unlock, jobs: make(map[string]*job)}
	m.cond = sync.NewCond(&m.mu)
	m.ctx, m.cancel = context.WithCancel(context.Background())

	metas, err := store.Load()
	if err != nil {
		return nil, err
	}
	// Oldest first, so recovered work keeps its submission order.
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].CreatedAt != metas[j].CreatedAt {
			return metas[i].CreatedAt < metas[j].CreatedAt
		}
		return metas[i].ID < metas[j].ID
	})
	for _, meta := range metas {
		if meta.State == Running {
			// The process that ran it is gone (this manager holds the
			// directory): back to pending, to resume from its last
			// durable point.
			meta.State = Pending
			if err := store.WriteMeta(meta); err != nil {
				return nil, err
			}
		}
		m.jobs[meta.ID] = &job{meta: meta, subs: make(map[chan struct{}]struct{})}
		if meta.State == Pending {
			m.queue = append(m.queue, meta.ID)
		}
	}

	for i := 0; i < cfg.MaxConcurrent; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

// Close stops accepting work, cancels running jobs, waits for the
// runners to drain and releases the directory. Running jobs flush
// their progress and stay in state "running" on disk, so the next
// NewManager over the same directory resumes them; pending jobs stay
// pending. Close is idempotent, and releases the lock once: a demoted
// HA leader's manager is closed by its demote func and at teardown.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()
		m.cancel()
		m.cond.Broadcast()
		m.wg.Wait()
		m.unlock()
	})
}

// Store returns the manager's durable store (for results paths and
// diagnostics).
func (m *Manager) Store() *Store { return m.store }

// Stats is a point-in-time load snapshot of the job subsystem, the
// jobs half of the /readyz readiness report.
type Stats struct {
	// Queued counts jobs awaiting a runner.
	Queued int `json:"queued"`
	// Running counts jobs executing now.
	Running int `json:"running"`
	// MaxQueued echoes the configured queue bound; zero is unbounded.
	MaxQueued int `json:"maxQueued,omitempty"`
	// Saturated reports whether a new submission would be rejected
	// with ErrQueueFull right now.
	Saturated bool `json:"saturated,omitempty"`
}

// Stats returns the manager's current load snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Queued: len(m.queue), MaxQueued: m.cfg.MaxQueued}
	st.Saturated = st.MaxQueued > 0 && st.Queued >= st.MaxQueued
	for _, j := range m.jobs {
		if j.meta.State == Running {
			st.Running++
		}
	}
	return st
}

// Submit canonicalizes the request and creates (or dedupes to) its
// content-keyed job. The boolean reports whether a new job was
// created; resubmitting an identical request returns the existing
// job, whatever its state.
func (m *Manager) Submit(request []byte) (Meta, bool, error) {
	canonical, total, err := m.cfg.Normalize(request)
	if err != nil {
		return Meta{}, false, err
	}
	id := IDFor(canonical)

	meta := Meta{
		ID:        id,
		State:     Pending,
		Total:     total,
		CreatedAt: m.cfg.now().UnixMilli(),
	}
	// Reserve the id under the lock, but run the store's fsync-heavy
	// Create outside it: a submission burst on a slow disk must not
	// stall status reads, checkpoints and cancels for every other job.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Meta{}, false, errors.New("jobs: manager is shut down")
	}
	if j, ok := m.jobs[id]; ok {
		existing := j.meta
		m.mu.Unlock()
		return existing, false, nil
	}
	if m.cfg.MaxQueued > 0 && len(m.queue) >= m.cfg.MaxQueued {
		// Saturated: shed the NEW job before any disk work. Dedupes
		// (above) are never shed — they create no new load.
		m.mu.Unlock()
		return Meta{}, false, ErrQueueFull
	}
	j := &job{meta: meta, creating: true, subs: make(map[chan struct{}]struct{})}
	m.jobs[id] = j
	m.mu.Unlock()

	if err := m.store.Create(meta, canonical); err != nil {
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		m.notify(j) // waiters on the vanished job observe ErrNotFound
		return Meta{}, false, err
	}
	if m.cfg.Replicate != nil {
		// The submission is only acknowledged once a write quorum of
		// peers holds the request: an acked job must survive this node's
		// disk. On failure the local copy is withdrawn too, so "created"
		// and "quorum-replicated" stay synonymous.
		if rerr := m.cfg.Replicate.JobCreated(meta, canonical); rerr != nil {
			m.store.Remove(id)
			m.mu.Lock()
			delete(m.jobs, id)
			m.mu.Unlock()
			m.notify(j)
			return Meta{}, false, rerr
		}
	}

	m.mu.Lock()
	j.creating = false
	if j.cancelRequested {
		// Cancelled while being created: finalize the terminal state
		// now that the directory exists; never enqueue.
		m.mu.Unlock()
		m.finish(id, Cancelled, "")
		meta, _ := m.Get(id)
		return meta, true, nil
	}
	// Enqueue only after the request is durable, so a runner never
	// races a half-created job.
	m.queue = append(m.queue, id)
	m.cond.Signal()
	m.mu.Unlock()
	return meta, true, nil
}

// Get returns a job's current status.
func (m *Manager) Get(id string) (Meta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Meta{}, ErrNotFound
	}
	return j.meta, nil
}

// List returns every job's status, oldest first (ties broken by id).
func (m *Manager) List() []Meta {
	m.mu.Lock()
	defer m.mu.Unlock()
	metas := make([]Meta, 0, len(m.jobs))
	for _, j := range m.jobs {
		metas = append(metas, j.meta)
	}
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].CreatedAt != metas[j].CreatedAt {
			return metas[i].CreatedAt < metas[j].CreatedAt
		}
		return metas[i].ID < metas[j].ID
	})
	return metas
}

// Cancel requests cancellation: a pending job becomes cancelled
// immediately; a running job's context is cancelled and it transitions
// once its executor unwinds (the returned Meta may still say
// "running"). Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (Meta, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Meta{}, ErrNotFound
	}
	switch j.meta.State {
	case Pending:
		if j.creating {
			// The job directory may not exist yet; Submit finalizes the
			// cancellation once the creation lands.
			j.cancelRequested = true
			meta := j.meta
			m.mu.Unlock()
			return meta, nil
		}
		// Mark and dequeue under the lock (a racing runner skips a
		// cancel-requested job), but persist before the in-memory state
		// turns terminal so an observer's immediate Delete cannot race
		// the meta rename.
		j.cancelRequested = true
		m.dequeue(id)
		meta := j.meta
		meta.State = Cancelled
		meta.FinishedAt = m.cfg.now().UnixMilli()
		m.mu.Unlock()
		if err := m.store.WriteMeta(meta); err != nil {
			return meta, err
		}
		if m.cfg.Replicate != nil {
			// Best-effort: a lost terminal meta is safe — a peer that
			// resumes this job re-executes zero remaining points and
			// reaches the same terminal bytes (see ReplicationSink).
			_ = m.cfg.Replicate.Checkpoint(id, meta, meta.Completed, nil)
		}
		m.mu.Lock()
		if j, ok := m.jobs[id]; ok {
			j.meta = meta
		}
		m.mu.Unlock()
		m.notifyJob(id)
		return meta, nil
	case Running:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		meta := j.meta
		m.mu.Unlock()
		return meta, nil
	default:
		meta := j.meta
		m.mu.Unlock()
		return meta, nil
	}
}

// Delete removes a terminal job from the store and the listing. An
// active (pending/running) job must be cancelled first.
func (m *Manager) Delete(id string) (Meta, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Meta{}, ErrNotFound
	}
	meta := j.meta
	if !meta.State.Terminal() {
		m.mu.Unlock()
		return meta, fmt.Errorf("jobs: job %s is %s; cancel it before deleting", id, meta.State)
	}
	runner := j.runner
	m.mu.Unlock()
	if runner != nil {
		// A job turns terminal just before its runner lets go of the
		// lease: wait for that, so only a replica apply can refuse the
		// removal below.
		select {
		case <-runner:
		case <-m.ctx.Done():
		}
	}
	if m.cfg.Replicate != nil {
		// Removal needs the same quorum as creation, and it lands on the
		// peers BEFORE the local delete: a rejected removal leaves the
		// job whole everywhere instead of resurrectable from a replica.
		if err := m.cfg.Replicate.JobRemoved(id); err != nil {
			return meta, err
		}
	}
	// The local copy goes before the listing does: a removal refused
	// while an old-term replica apply holds the job's lease
	// (ErrLeaseHeld) leaves the job listed, and a retry finishes it.
	if err := m.store.Remove(id); err != nil {
		return meta, err
	}
	m.mu.Lock()
	delete(m.jobs, id)
	m.mu.Unlock()
	return meta, nil
}

// Wait blocks until the job reaches a terminal state (or ctx is done)
// and returns its final status.
func (m *Manager) Wait(ctx context.Context, id string) (Meta, error) {
	ch, unsub, err := m.subscribe(id)
	if err != nil {
		return Meta{}, err
	}
	defer unsub()
	for {
		meta, err := m.Get(id)
		if err != nil || meta.State.Terminal() {
			return meta, err
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return meta, ctx.Err()
		}
	}
}

// subscribe registers a wakeup channel signalled on every checkpoint
// and state transition of the job.
func (m *Manager) subscribe(id string) (ch chan struct{}, unsub func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch = make(chan struct{}, 1)
	j.subs[ch] = struct{}{}
	return ch, func() {
		m.mu.Lock()
		delete(j.subs, ch)
		m.mu.Unlock()
	}, nil
}

// notifyJob wakes the job's subscribers (non-blocking).
func (m *Manager) notifyJob(id string) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		m.notify(j)
	}
}

// notify wakes a job object's subscribers directly — usable even when
// the job was just unlinked from the map.
func (m *Manager) notify(j *job) {
	m.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	m.mu.Unlock()
}

// dequeue removes id from the pending queue (m.mu held).
func (m *Manager) dequeue(id string) {
	for i, q := range m.queue {
		if q == id {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return
		}
	}
}

// runner is one job-executing goroutine: it pops pending jobs in
// submission order until the manager closes.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		id := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		m.runJob(id)
	}
}

// runJob executes one job end to end: transition to running, recover
// the durable offset, execute from there with periodic checkpoints,
// and persist the terminal state. On manager shutdown the job's disk
// state is left "running" with its progress flushed, which the next
// manager recovers into a resumed pending job.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || j.meta.State != Pending || j.cancelRequested {
		m.mu.Unlock()
		return
	}
	done := make(chan struct{})
	defer close(done)
	j.runner = done
	m.mu.Unlock()

	// The per-job lease keeps a replica apply (Store.ApplyReplicated)
	// out of the results file while the job executes. A newly promoted
	// leader can find an old-term apply still holding it: wait for it,
	// unless the manager closes first, which leaves the job pending.
	release, err := acquireLease(m.store.LeasePath(id))
	for errors.Is(err, ErrLeaseHeld) {
		select {
		case <-m.ctx.Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
		release, err = acquireLease(m.store.LeasePath(id))
	}
	if err != nil {
		m.finish(id, Failed, fmt.Sprintf("acquiring job lease: %v", err))
		return
	}
	defer release()

	m.mu.Lock()
	if j.meta.State != Pending || j.cancelRequested {
		m.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	j.cancel = cancel
	j.meta.State = Running
	if j.meta.StartedAt == 0 {
		j.meta.StartedAt = m.cfg.now().UnixMilli()
	}
	meta := j.meta
	m.mu.Unlock()

	fail := func(err error) {
		m.finish(id, Failed, err.Error())
	}
	if err := m.store.WriteMeta(meta); err != nil {
		fail(err)
		return
	}
	m.notifyJob(id)

	request, err := m.store.Request(id)
	if err != nil {
		fail(err)
		return
	}
	// OpenResults verifies every durable record against the checksum
	// sidecar before the job may resume: a corrupt results file fails
	// the job here — quarantined with its typed error in the status,
	// other jobs and the manager itself unharmed — rather than letting
	// an executor append a clean suffix to a poisoned prefix.
	rf, offset, err := m.store.OpenResults(id)
	if err != nil {
		fail(err)
		return
	}
	defer rf.Close()
	if m.cfg.ResultsAppendHook != nil {
		rf.SetAppendHook(m.cfg.ResultsAppendHook)
	}

	completed := offset
	unflushed := 0
	// With a replication sink, the lines of the current checkpoint
	// window are buffered so each flush can stream exactly the new
	// durable suffix to the peers. The buffer is bounded by
	// CheckpointEvery lines and unused (nil) in single-node mode.
	var replBuf []byte
	replFrom := offset
	checkpoint := func() error {
		if err := rf.Sync(); err != nil {
			return err
		}
		unflushed = 0
		m.mu.Lock()
		j.meta.Completed = completed
		meta := j.meta
		m.mu.Unlock()
		if err := m.store.WriteMeta(meta); err != nil {
			return err
		}
		if m.cfg.Replicate != nil {
			// The flush acks — and execution proceeds — only once the
			// suffix is on a write quorum. A rejected checkpoint (peers
			// unreachable, or this leader fenced by a newer term) fails
			// the job here: the lines stay durable locally, and the job
			// resumes wherever the quorum survives.
			if err := m.cfg.Replicate.Checkpoint(id, meta, replFrom, replBuf); err != nil {
				return err
			}
			replFrom = completed
			replBuf = replBuf[:0]
		}
		m.notifyJob(id)
		return nil
	}
	start := func(total int) error {
		if offset > total {
			// No crash leaves more durable lines than the job has points.
			return fmt.Errorf("%w: job %s: %d result lines for a %d-point job", ErrCorruptResults, id, offset, total)
		}
		m.mu.Lock()
		j.meta.Total = total
		m.mu.Unlock()
		return nil
	}
	emit := func(line []byte) error {
		if len(line) == 0 || line[len(line)-1] != '\n' || bytes.IndexByte(line[:len(line)-1], '\n') >= 0 {
			return fmt.Errorf("jobs: executor emitted a malformed record (%d bytes)", len(line))
		}
		if err := rf.Append(line); err != nil {
			return err
		}
		if m.cfg.Replicate != nil {
			replBuf = append(replBuf, line...)
		}
		completed++
		unflushed++
		if unflushed >= m.cfg.CheckpointEvery {
			return checkpoint()
		}
		return nil
	}

	execErr := m.cfg.Exec(jctx, request, offset, start, emit)

	// Whatever happened, make the emitted prefix durable: even a failed
	// or interrupted job resumes (or reports) from everything it
	// completed.
	if err := checkpoint(); err != nil && execErr == nil {
		execErr = err
	}

	m.mu.Lock()
	cancelled := j.cancelRequested
	shutdown := m.ctx.Err() != nil && !cancelled
	j.cancel = nil
	m.mu.Unlock()

	switch {
	case execErr == nil:
		// Every point is durable: the job is done even when a cancel
		// (or shutdown) raced the final emission — a byte-complete
		// result set must never read as a truncated one.
		m.finish(id, Done, "")
	case shutdown:
		// Manager shutdown: leave the durable state "running" so the
		// next manager resumes the job; only the in-memory view ends.
	case cancelled:
		m.finish(id, Cancelled, "")
	default:
		fail(execErr)
	}
}

// finish persists a terminal transition. The disk write lands BEFORE
// the in-memory state turns terminal, so an observer that sees a
// terminal status (and may immediately Delete the directory) never
// races the meta rename. A persistence failure is surfaced in the
// job's Error field: the in-memory state is still terminal for this
// process, but the disk may say "running" — the next start would
// resume the job — so clients reading the status see the store is in
// trouble instead of nothing at all.
func (m *Manager) finish(id string, state State, errMsg string) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	meta := j.meta
	meta.State = state
	meta.Error = errMsg
	meta.FinishedAt = m.cfg.now().UnixMilli()
	m.mu.Unlock()
	if err := m.store.WriteMeta(meta); err != nil {
		if meta.Error == "" {
			meta.Error = fmt.Sprintf("terminal state not persisted: %v", err)
		} else {
			meta.Error = fmt.Sprintf("%s (terminal state not persisted: %v)", meta.Error, err)
		}
	} else if m.cfg.Replicate != nil {
		// Best-effort: a lost terminal meta is safe — a peer that resumes
		// this job re-executes zero remaining points and reaches the same
		// terminal bytes (see ReplicationSink).
		_ = m.cfg.Replicate.Checkpoint(id, meta, meta.Completed, nil)
	}
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		j.meta = meta
	}
	m.mu.Unlock()
	m.notifyJob(id)
}

// StreamResults emits the job's durable result lines from line-number
// `offset` on, then follows the file — waking on every checkpoint —
// until the job is terminal, and returns the final status. Lines are
// emitted exactly as the executor produced them; a torn tail is never
// emitted (only '\n'-terminated lines count). A client that was cut
// off at line K resumes with offset=K and receives the identical
// remaining byte stream.
func (m *Manager) StreamResults(ctx context.Context, id string, offset int, emit func(line []byte) error) (Meta, error) {
	meta, err := m.Get(id)
	if err != nil {
		return Meta{}, err
	}
	ch, unsub, err := m.subscribe(id)
	if err != nil {
		return Meta{}, err
	}
	defer unsub()

	f, err := os.Open(m.store.ResultsPath(id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return meta, err
	}
	// The file may not exist yet (the job has not started); drain
	// reopens it on a later wakeup, so close whatever handle is current
	// when the stream ends, not just the one opened here.
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	var pos int64 // byte offset of the last consumed complete line
	skip := offset
	buf := make([]byte, 64<<10)
	drain := func() error {
		if f == nil { // not created yet; reopen on the next wakeup
			var oerr error
			if f, oerr = os.Open(m.store.ResultsPath(id)); oerr != nil {
				if errors.Is(oerr, os.ErrNotExist) {
					return nil
				}
				return oerr
			}
		}
		// pos only ever rests on a line boundary: a torn tail is left
		// in the file and re-read on the next wakeup rather than
		// buffered across drains. Crash-recovery truncation
		// (Store.OpenResults) removes only bytes after the last '\n',
		// so pos stays valid even when a resumed job rewrites the tail
		// under a live follower.
		if _, err := f.Seek(pos, io.SeekStart); err != nil {
			return err
		}
		var pending []byte
		for {
			n, rerr := f.Read(buf)
			if n > 0 {
				pending = append(pending, buf[:n]...)
				for {
					i := bytes.IndexByte(pending, '\n')
					if i < 0 {
						break
					}
					line := pending[:i+1]
					pos += int64(i + 1)
					if skip > 0 {
						skip--
					} else if err := emit(line); err != nil {
						return err
					}
					pending = pending[i+1:]
				}
			}
			if rerr == io.EOF {
				return nil
			}
			if rerr != nil {
				return rerr
			}
		}
	}

	for {
		if err := drain(); err != nil {
			return meta, err
		}
		meta, err = m.Get(id)
		if err != nil {
			return Meta{}, err
		}
		if meta.State.Terminal() {
			// One final drain: the terminal checkpoint may have landed
			// between the last drain and the state read.
			return meta, drain()
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return meta, ctx.Err()
		}
	}
}
