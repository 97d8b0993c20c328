package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
	"repro/internal/rng"
)

// Config configures a Coordinator.
type Config struct {
	// Service is the coordinator's local evaluation service, used for
	// request normalization and point-key expansion — and, when the
	// fleet degrades, for executing ranges in-process. Workers must run
	// the same grid limits (maxgrid, maxruns) or dispatches can be
	// rejected.
	Service *api.Service
	// Workers lists the worker base URLs (e.g. http://host:8080).
	Workers []string
	// Client issues the dispatch requests (default: a client on
	// DefaultTransport — explicit dial/TLS/response-header timeouts, no
	// whole-request timeout; the per-dispatch lease is the liveness
	// discipline once a stream is flowing).
	Client *http.Client
	// Lease is the per-dispatch heartbeat budget: a dispatch that
	// delivers no line for Lease is cancelled and its unfinished
	// suffix re-dispatched (default 15s). Every delivered line renews
	// the lease, so a slow-but-alive worker is never pre-empted.
	Lease time.Duration
	// StealAfter is how long an in-flight range must go without
	// progress before an idle worker speculatively duplicates its
	// remainder (default Lease/2). The merger dedupes the race by
	// point index, and content-keyed seeds make both copies byte-
	// identical, so stealing never perturbs the output.
	StealAfter time.Duration
	// MaxAttempts bounds the dispatch attempts per range before the
	// range is handed to the in-process executor — or, with
	// DisableLocalFallback, before the sweep fails (default 3 × worker
	// count, minimum 4).
	MaxAttempts int
	// Replicas is the consistent-hash ring's virtual-node count per
	// worker (default DefaultReplicas).
	Replicas int
	// RetryBackoff is the base of the capped exponential backoff a
	// range waits out between dispatch attempts (default 25ms). The
	// actual delay is full-jitter: uniform in [0, min(cap, base·2ⁿ)].
	RetryBackoff time.Duration
	// RetryBackoffCap bounds the backoff window (default 1s).
	RetryBackoffCap time.Duration
	// BreakerThreshold is how many consecutive dispatch failures open a
	// worker's circuit (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit sheds all claims
	// before admitting a half-open probe (default Lease).
	BreakerCooldown time.Duration
	// DisableLocalFallback turns off degraded in-process execution:
	// a range that exhausts MaxAttempts fails the sweep instead of
	// falling back to the coordinator's own Service. Mostly for tests
	// that pin the fail-loudly path.
	DisableLocalFallback bool
	// JitterSeed seeds the backoff jitter stream. Zero draws a seed
	// from the clock — two coordinators sharing a recovering fleet must
	// not re-dispatch in lockstep — but either way the seed in use is
	// reported through Logf, so a scheduling race replays by passing
	// the logged value back in (the chaos matrix derives it from
	// CHAOS_SEED). Nothing byte-visible depends on it.
	JitterSeed uint64
	// Logf receives the coordinator's operational log lines (the jitter
	// seed, degraded-execution transitions). Nil discards them.
	Logf func(format string, args ...any)
}

// DefaultTransport returns the transport the coordinator dials workers
// with when Config.Client is nil: explicit connect, TLS-handshake and
// response-header timeouts so a dark or wedged worker fails a dispatch
// in bounded time instead of parking a scheduler slot forever. There
// is deliberately no whole-request timeout — a healthy dispatch
// streams for as long as its range takes; once headers have arrived
// the lease watchdog owns liveness.
func DefaultTransport() *http.Transport {
	return &http.Transport{
		Proxy:                 http.ProxyFromEnvironment,
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ResponseHeaderTimeout: 15 * time.Second,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// Coordinator shards sweeps across a fleet of workers. It is safe for
// concurrent use; each sweep runs its own scheduler and merger, while
// the per-worker circuit breakers persist across sweeps.
type Coordinator struct {
	cfg  Config
	ring *Ring

	breakers    []*breaker
	localPoints atomic.Int64 // grid points executed in-process, degraded

	// readers pools the per-dispatch response readers: a sweep issues
	// one dispatch per range attempt, and the 64 KiB read buffer is the
	// dominant per-dispatch allocation.
	readers sync.Pool

	jmu    sync.Mutex
	jitter *rng.Stream
}

// New validates the config and builds the coordinator's hash ring.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Service == nil {
		return nil, errors.New("fabric: coordinator needs a local api.Service")
	}
	ring, err := NewRing(cfg.Workers, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 15 * time.Second
	}
	if cfg.Client == nil {
		tr := DefaultTransport()
		if cfg.Lease > tr.ResponseHeaderTimeout {
			// A lease above the default header timeout means the
			// operator expects slower first points; don't let the
			// transport pre-empt the watchdog.
			tr.ResponseHeaderTimeout = cfg.Lease
		}
		cfg.Client = &http.Client{Transport: tr}
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = cfg.Lease / 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3 * len(cfg.Workers)
		if cfg.MaxAttempts < 4 {
			cfg.MaxAttempts = 4
		}
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.RetryBackoffCap <= 0 {
		cfg.RetryBackoffCap = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = cfg.Lease
	}
	c := &Coordinator{cfg: cfg, ring: ring}
	for range cfg.Workers {
		c.breakers = append(c.breakers, newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown))
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = uint64(time.Now().UnixNano())
	}
	c.cfg.JitterSeed = cfg.JitterSeed
	c.jitter = rng.New(cfg.JitterSeed)
	c.logf("fabric: coordinator backoff jitter seed %d", cfg.JitterSeed)
	return c, nil
}

// logf routes a log line to Config.Logf, if any.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Ring returns the coordinator's consistent-hash ring.
func (c *Coordinator) Ring() *Ring { return c.ring }

// WorkerStatus is one worker's circuit view, surfaced on /readyz.
type WorkerStatus struct {
	URL     string `json:"url"`
	Circuit string `json:"circuit"` // closed | open | half-open
}

// FleetStatus summarizes the coordinator's live view of its fleet.
type FleetStatus struct {
	Workers []WorkerStatus `json:"workers"`
	// Degraded is true when any worker's circuit is not closed: sweeps
	// still complete (healthy workers absorb the load, the coordinator
	// itself backstops), but capacity is impaired and /readyz says so.
	Degraded bool `json:"degraded"`
	// LocalPoints counts grid points this coordinator executed
	// in-process because the fleet could not.
	LocalPoints int64 `json:"localPoints"`
}

// Status reports per-worker circuit state and the degraded-execution
// counters. It never blocks on sweep progress.
func (c *Coordinator) Status() FleetStatus {
	st := FleetStatus{Workers: make([]WorkerStatus, len(c.breakers))}
	for i, b := range c.breakers {
		state := b.State()
		st.Workers[i] = WorkerStatus{URL: c.ring.workers[i], Circuit: state}
		if state != "closed" {
			st.Degraded = true
		}
	}
	st.LocalPoints = c.localPoints.Load()
	return st
}

// fleetDark reports whether every worker's circuit is impaired (open,
// or half-open with the probe unresolved): the signal for the local
// loop to stop waiting on the fleet and claim pending ranges itself.
func (c *Coordinator) fleetDark() bool {
	for _, b := range c.breakers {
		if b.Closed() {
			return false
		}
	}
	return true
}

// backoffDelay is the capped-exponential full-jitter delay a range
// waits before dispatch attempt n+1: uniform in [0, min(cap, base·2ⁿ)].
// Full jitter (spreading retries over the whole window, not around its
// midpoint) keeps re-dispatches of distinct ranges from
// re-synchronizing against a just-recovered worker.
func (c *Coordinator) backoffDelay(attempts int) time.Duration {
	window := c.cfg.RetryBackoffCap
	if attempts < 20 { // beyond 2²⁰ the shift is past any sane cap
		if d := c.cfg.RetryBackoff << uint(attempts-1); d < window {
			window = d
		}
	}
	c.jmu.Lock()
	u := c.jitter.Float64()
	c.jmu.Unlock()
	return time.Duration(u * float64(window))
}

// task is one key range's scheduling state. start advances over the
// delivered prefix on every (re)dispatch accounting pass, so a requeue
// carries exactly the unfinished suffix.
type task struct {
	start, end int
	owner      int // preferred worker (ring assignment)
	attempts   int
	copies     int // concurrent dispatches (1 + speculative steals)
	lastWorker int // last worker to fail it; steered away on requeue
	progress   time.Time
	completed  bool
	notBefore  time.Time // retry backoff gate: ineligible until then
	localOnly  bool      // remote budget spent; in-process executor only
}

// sched is one sweep's scheduler: a pending queue plus the stealing
// and failure bookkeeping shared by the per-worker loops.
type sched struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*task
	tasks   []*task
	failed  error
	done    bool
	cancel  context.CancelFunc // kills in-flight dispatches on failure
}

func (s *sched) fail(err error) {
	s.mu.Lock()
	if s.failed == nil && err != nil {
		s.failed = err
		s.cancel()
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *sched) finished() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done, s.failed
}

// next blocks until a range is available for worker w and claims it.
// Preference order: a pending range this worker owns (ring
// assignment), then a stolen pending range (largest first, skipping
// ranges this worker just failed), then a speculative duplicate of an
// in-flight range with stale progress. Ranges sitting out a retry
// backoff or marked local-only are invisible to workers. Returns nil
// when the sweep is done or failed.
func (s *sched) next(ctx context.Context, w int, stealAfter time.Duration) *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.done || s.failed != nil || ctx.Err() != nil {
			return nil
		}
		now := time.Now()
		eligible := func(t *task) bool { return !t.localOnly && !now.Before(t.notBefore) }
		best := -1
		for i, t := range s.pending {
			if t.owner == w && eligible(t) {
				best = i
				break
			}
		}
		if best < 0 {
			size := 0
			for i, t := range s.pending {
				if !eligible(t) {
					continue
				}
				if t.lastWorker == w && t.attempts > 0 {
					continue // let another worker try what this one failed
				}
				if n := t.end - t.start; n > size {
					best, size = i, n
				}
			}
		}
		if best < 0 {
			for i, t := range s.pending {
				if eligible(t) {
					best = i // nothing better: retry even a range this worker failed
					break
				}
			}
		}
		if best >= 0 {
			t := s.pending[best]
			s.pending = append(s.pending[:best], s.pending[best+1:]...)
			t.copies++
			return t
		}
		// Idle with nothing pending: speculatively duplicate the
		// stalest in-flight range that has gone quiet. The duplicate
		// races the original; the merger dedupes by index. Local-only
		// ranges are never duplicated back onto the fleet.
		var cand *task
		size := 0
		for _, t := range s.tasks {
			if t.completed || t.localOnly || t.copies != 1 || now.Sub(t.progress) < stealAfter {
				continue
			}
			if n := t.end - t.start; n > size {
				cand, size = t, n
			}
		}
		if cand != nil {
			cand.copies++
			return cand
		}
		s.cond.Wait()
	}
}

// nextLocal blocks until a range is eligible for in-process execution
// and claims it: any range marked local-only (its remote attempt
// budget is spent), or — while the whole fleet's circuits are
// impaired — any pending range at all, retry backoff notwithstanding
// (a delay aimed at a fleet known to be dark protects nothing).
// Returns nil when the sweep is done or failed.
func (s *sched) nextLocal(ctx context.Context, dark func() bool) *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.done || s.failed != nil || ctx.Err() != nil {
			return nil
		}
		allDark := dark()
		for i, t := range s.pending {
			if t.localOnly || allDark {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				t.copies++
				return t
			}
		}
		s.cond.Wait()
	}
}

// finish accounts for a returned dispatch: the delivered prefix is
// retired, a fully covered range completes, and an unfinished suffix
// is requeued behind its backoff — or handed to the in-process
// executor once the range exhausts its remote attempts (with
// DisableLocalFallback, the sweep fails instead).
func (c *Coordinator) finish(s *sched, t *task, w int, err error, m *Merger) {
	s.mu.Lock()
	t.copies--
	gap := m.FirstGap(t.start, t.end)
	if gap >= t.end {
		if !t.completed {
			t.completed = true
		}
		if m.Done() {
			s.done = true
		}
		s.mu.Unlock()
		s.cond.Broadcast()
		return
	}
	t.start = gap
	if t.copies > 0 {
		// A racing duplicate is still delivering this range; it will
		// run this accounting when it returns.
		s.mu.Unlock()
		return
	}
	t.lastWorker = w
	t.attempts++
	if !t.localOnly && t.attempts >= c.cfg.MaxAttempts {
		if c.cfg.DisableLocalFallback {
			s.mu.Unlock()
			s.fail(fmt.Errorf("fabric: range [%d, %d) exhausted %d dispatch attempts, last error: %v",
				t.start, t.end, t.attempts, err))
			return
		}
		// Degrade rather than die: the range's remote budget is spent,
		// so it is withdrawn from the fleet and handed to the local
		// loop.
		t.localOnly = true
	}
	if !t.localOnly {
		t.notBefore = time.Now().Add(c.backoffDelay(t.attempts))
	}
	s.pending = append(s.pending, t)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// touch renews the range's heartbeat on every delivered line.
func (s *sched) touch(t *task) {
	s.mu.Lock()
	t.progress = time.Now()
	s.mu.Unlock()
}

// Executor adapts the coordinator to the durable job subsystem: jobs
// submitted to a coordinator node execute across the fleet while their
// checkpoints land in the coordinator's store, so a restarted
// coordinator resumes a distributed job from its last durable point
// exactly like a single-node job — and emits the identical remaining
// bytes.
func (c *Coordinator) Executor() jobs.Executor {
	return func(ctx context.Context, request []byte, offset int, start func(total int) error, emit func(line []byte) error) error {
		return c.SweepStreamFrom(ctx, request, offset, start, emit)
	}
}

// SweepStreamFrom runs the request's grid from point `offset` on
// across the worker fleet, emitting one NDJSON line per point in
// canonical grid order — byte-identical to a single-node run of the
// same request. It is the distributed twin of the node's
// api.Service.JobExecutor and satisfies the same executor contract.
func (c *Coordinator) SweepStreamFrom(ctx context.Context, request []byte, offset int, start func(total int) error, emit func(line []byte) error) error {
	sweep, err := c.cfg.Service.NormalizeSweep(request, offset, -1)
	if err != nil {
		return err
	}
	if start != nil {
		if err := start(sweep.Total); err != nil {
			return err
		}
	}
	return c.run(ctx, sweep, emit, nil)
}

// planSweep is the coordinator's /v1/sweep source. The body is
// normalized first, so the payload dispatched to every worker is the
// canonical request and worker-side point keys are exactly the
// coordinator's; the requested range, the only part of the grid
// planned, then fans out across the fleet.
func (c *Coordinator) planSweep(body []byte, offset, limit int) (api.SweepRun, error) {
	sweep, err := c.cfg.Service.NormalizeSweep(body, offset, limit)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, emit func(line []byte) error, stalled func()) (api.SweepStats, error) {
		return api.SweepStats{Points: len(sweep.Keys)}, c.run(ctx, sweep, emit, stalled)
	}, nil
}

// run dispatches the normalized range's points and merges their lines.
// stalled, if non-nil, runs after each run of lines the merger drains
// in one go — the next line is then not ready — serialized with emit.
func (c *Coordinator) run(ctx context.Context, sweep api.NormalizedSweep, emit func(line []byte) error, stalled func()) error {
	from, to := sweep.Offset, sweep.Offset+len(sweep.Keys)
	if from >= to {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	m := NewMerger(from, to, emit)
	m.flush = stalled
	s := &sched{cancel: cancel}
	s.cond = sync.NewCond(&s.mu)
	for _, rg := range c.ring.Ranges(sweep.Keys, from) {
		t := &task{start: rg.Start, end: rg.Start + rg.Count, owner: rg.Worker, lastWorker: -1, progress: time.Now()}
		s.tasks = append(s.tasks, t)
		s.pending = append(s.pending, t)
	}

	// The waker gives cond.Wait a clock: steal thresholds, retry
	// backoffs and context cancellation are time-based conditions no
	// cond broadcast fires for on its own.
	wake := time.NewTicker(c.wakeEvery())
	stop := make(chan struct{})
	defer func() { wake.Stop(); close(stop) }()
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-wake.C:
				s.cond.Broadcast()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := range c.ring.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.workerLoop(ctx, s, m, sweep.Canonical, w)
		}(w)
	}
	if !c.cfg.DisableLocalFallback {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.localLoop(ctx, s, m, sweep.Canonical)
		}()
	}
	wg.Wait()

	done, failed := s.finished()
	switch {
	case failed != nil:
		return failed
	case ctx.Err() != nil:
		return ctx.Err()
	case !done:
		return errors.New("fabric: sweep stalled with no failure recorded")
	}
	return nil
}

// wakeEvery is the scheduler's clock tick: fine-grained enough to
// notice a stale lease promptly at test-scale lease budgets without
// spinning at production ones.
func (c *Coordinator) wakeEvery() time.Duration {
	d := c.cfg.StealAfter / 4
	if c.cfg.Lease/4 < d {
		d = c.cfg.Lease / 4
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// workerLoop claims ranges for one worker until the sweep completes.
// An open circuit sheds the worker's claims entirely: its ranges flow
// to healthy workers (or the local loop) instead of burning attempt
// budget against a peer known to be dark.
func (c *Coordinator) workerLoop(ctx context.Context, s *sched, m *Merger, request []byte, w int) {
	b := c.breakers[w]
	for {
		for !b.Allow(time.Now()) {
			if done, failed := s.finished(); done || failed != nil || ctx.Err() != nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(c.wakeEvery()):
			}
		}
		t := s.next(ctx, w, c.cfg.StealAfter)
		if t == nil {
			b.CancelProbe()
			return
		}
		attempted, err := c.dispatch(ctx, s, m, request, t, w)
		switch {
		case !attempted:
			// The range was already covered by a racing duplicate; no
			// request reached the worker, so its circuit learned
			// nothing.
			b.CancelProbe()
		case err == nil:
			b.Success()
		case ctx.Err() == nil:
			b.Failure(time.Now())
		}
		c.finish(s, t, w, err, m)
	}
}

// localLoop is the degraded-execution backstop: it claims ranges the
// fleet can no longer serve and runs them through the coordinator's
// own Service. A local execution failure is terminal for the sweep —
// there is no path more reliable left to retry on.
func (c *Coordinator) localLoop(ctx context.Context, s *sched, m *Merger, request []byte) {
	for {
		t := s.nextLocal(ctx, c.fleetDark)
		if t == nil {
			return
		}
		err := c.runLocal(ctx, s, m, request, t)
		if err != nil && ctx.Err() == nil {
			s.fail(fmt.Errorf("fabric: degraded local execution of range [%d, %d): %w", t.start, t.end, err))
		}
		c.finish(s, t, -1, err, m)
	}
}

// runLocal executes one claimed range in-process through the line
// source a worker serves (api.Service.SweepLines), so degraded output
// stays byte-identical to the fleet's. Priority is Batch: degraded bulk
// work must not starve interactive point queries on the local pool.
func (c *Coordinator) runLocal(ctx context.Context, s *sched, m *Merger, request []byte, t *task) error {
	s.mu.Lock()
	start, end := t.start, t.end
	s.mu.Unlock()
	// Skip whatever a racing remote duplicate has already delivered.
	if start = m.FirstGap(start, end); start >= end {
		return nil
	}
	i := start
	return c.cfg.Service.SweepLines(ctx, request, start, end-start, jobs.Batch, nil, func(line []byte) error {
		if _, err := m.Add(i, line); err != nil {
			return err
		}
		i++
		s.touch(t)
		c.localPoints.Add(1)
		return nil
	})
}

// ErrCorruptLine marks a worker-delivered result line that failed
// integrity verification. It fails the dispatch (the range retries on
// another attempt), never the sweep.
var ErrCorruptLine = errors.New("fabric: corrupt result line")

// dispatch sends one range to one worker and feeds its lines into the
// merger, under the lease + heartbeat watchdog. The response is
// integrity-framed (api.HeaderSweepIntegrity): each line's checksum is
// verified before the merger may emit it, so a byte flipped in flight
// becomes a typed retryable error instead of silently breaking byte
// identity. Returns nil when the range's remaining points were all
// delivered (by this dispatch or a racing duplicate); attempted is
// false when no request was issued at all, so the worker's circuit
// breaker only learns from real attempts.
func (c *Coordinator) dispatch(ctx context.Context, s *sched, m *Merger, request []byte, t *task, w int) (attempted bool, _ error) {
	s.mu.Lock()
	start, end := t.start, t.end
	s.mu.Unlock()
	// Skip whatever a racing duplicate has already delivered.
	if start = m.FirstGap(start, end); start >= end {
		return false, nil
	}

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	progress := make(chan struct{}, 1)
	go c.watchdog(dctx, cancel, progress)

	worker := c.ring.workers[w]
	url := fmt.Sprintf("%s/v1/sweep?offset=%d&limit=%d", strings.TrimSuffix(worker, "/"), start, end-start)
	hreq, err := http.NewRequestWithContext(dctx, http.MethodPost, url, bytes.NewReader(request))
	if err != nil {
		return true, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", api.NDJSONContentType)
	hreq.Header.Set(api.HeaderSweepIntegrity, api.IntegrityCRC32C)
	resp, err := c.cfg.Client.Do(hreq)
	if err != nil {
		return true, fmt.Errorf("fabric: worker %s: %w", worker, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return true, fmt.Errorf("fabric: worker %s: status %d: %s", worker, resp.StatusCode, bytes.TrimSpace(body))
	}

	br, _ := c.readers.Get().(*bufio.Reader)
	if br == nil {
		br = bufio.NewReaderSize(nil, 64<<10)
	}
	br.Reset(resp.Body)
	defer func() { br.Reset(nil); c.readers.Put(br) }()
	var scratch []byte // spill for the rare line longer than the read buffer
	for i := start; i < end; i++ {
		// ReadSlice hands back a view into the reader's buffer — valid
		// until the next read, which is long enough: the merger copies on
		// Add. ReadBytes would allocate a fresh copy per line.
		framed, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			scratch = append(scratch[:0], framed...)
			for err == bufio.ErrBufferFull {
				framed, err = br.ReadSlice('\n')
				scratch = append(scratch, framed...)
			}
			framed = scratch
		}
		if err != nil {
			return true, fmt.Errorf("fabric: worker %s: stream ended %d points early: %w", worker, end-i, err)
		}
		if api.IsErrorRecord(framed) {
			return true, fmt.Errorf("fabric: worker %s: mid-stream abort: %s", worker, bytes.TrimSpace(framed))
		}
		line, err := api.UnframeLine(framed)
		if err != nil {
			return true, fmt.Errorf("fabric: worker %s: point %d: %w: %v", worker, i, ErrCorruptLine, err)
		}
		if !json.Valid(line) {
			return true, fmt.Errorf("fabric: worker %s: point %d: %w: not JSON", worker, i, ErrCorruptLine)
		}
		if _, err := m.Add(i, line); err != nil {
			if errors.Is(err, ErrMalformedLine) {
				// Torn or unframed delivery: this dispatch failed, the
				// range retries elsewhere.
				return true, fmt.Errorf("fabric: worker %s: point %d: %w", worker, i, err)
			}
			// The merge window or the downstream consumer failed; both
			// doom the sweep, not just this dispatch.
			s.fail(err)
			return true, err
		}
		s.touch(t)
		select {
		case progress <- struct{}{}:
		default:
		}
	}
	// Read on to EOF — past the chunk terminator and the stats trailers
	// — so the transport can pool the connection: a body closed before
	// EOF takes its connection down with it, and the next dispatch to
	// this worker dials again. The drain is bounded in bytes and in
	// time, so a worker that hangs after its last line costs the sweep
	// drainWait, not a lease. Its error is moot: the range is delivered.
	drain := time.AfterFunc(drainWait, cancel)
	io.Copy(io.Discard, io.LimitReader(br, drainBytes))
	drain.Stop()
	return true, nil
}

// drainWait and drainBytes bound the read-to-EOF after a dispatch's
// last line; a healthy worker sends only its trailers by then.
const (
	drainWait  = 200 * time.Millisecond
	drainBytes = 4 << 10
)

// watchdog cancels the dispatch when no line lands within the lease.
// Every delivered line renews it.
func (c *Coordinator) watchdog(ctx context.Context, cancel context.CancelFunc, progress <-chan struct{}) {
	timer := time.NewTimer(c.cfg.Lease)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-progress:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(c.cfg.Lease)
		case <-timer.C:
			cancel()
			return
		}
	}
}
