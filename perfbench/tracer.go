package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
)

// Span kinds: one per boundary the benchmark wraps.
const (
	kindOp          = "client.op"          // one client operation
	kindHandler     = "api.handler"        // a node serving /v1/sweep or /v1/jobs
	kindCoordinator = "fabric.coordinator" // the coordinator serving /v1/sweep
	kindDispatch    = "fabric.dispatch"    // coordinator → worker range dispatch
	kindQuorum      = "fabric.quorum"      // a ReplicationSink call on the leader
	kindRPC         = "fabric.rpc"         // leader → peer /v1/replica/* request
	kindReplica     = "fabric.replica"     // a peer serving /v1/replica/*
	kindExec        = "jobs.exec"          // one jobs.Executor call
	kindEmit        = "jobs.emit"          // one emit inside it
	kindBackground  = "background"         // heartbeats: attributed by path, never to an operation
)

// span is one timed interval at a boundary. Times are nanoseconds since
// the tracer's base.
type span struct {
	kind  string
	node  string // the node the span ran on
	peer  string // target node of a client-side span
	path  string
	sub   string // quorum operation: create, checkpoint or remove
	start int64
	ttfb  int64 // client-side spans: response headers received
	end   int64
	off   int // dispatch range
	lim   int
	in    int64 // response bytes
	out   int64 // request bytes
	ckpt  bool  // an emit that closed a checkpoint
}

// tracer records spans at the boundaries the benchmark owns: node
// handlers, client transports, the job executor and its emit, and the
// replication sink. It keeps them in memory; the analysis runs once the
// traced phase is over. A nil tracer wraps nothing.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	dials atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// handler wraps a node's outermost handler.
func (t *tracer) handler(n *node, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		kind := serverKind(n.role, r.URL.Path)
		if kind == "" {
			h.ServeHTTP(w, r)
			return
		}
		s := span{kind: kind, node: n.name, path: r.Method + " " + r.URL.Path, start: t.now()}
		s.off, s.lim = rangeOf(r.URL.Query())
		h.ServeHTTP(w, r)
		s.end = t.now()
		t.add(s)
	})
}

// serverKind classifies a request served by a node of the given role;
// "" leaves it untraced (probes).
func serverKind(role, path string) string {
	switch {
	case path == "/v1/replica/heartbeat":
		return kindBackground
	case strings.HasPrefix(path, "/v1/replica/"):
		return kindReplica
	case path == "/v1/sweep" && role == roleCoordinator:
		return kindCoordinator
	case path == "/v1/sweep", strings.HasPrefix(path, "/v1/jobs"):
		return kindHandler
	}
	return ""
}

func rangeOf(q map[string][]string) (off, lim int) {
	get := func(k string) int {
		if v, ok := q[k]; ok && len(v) > 0 {
			n, _ := strconv.Atoi(v[0])
			return n
		}
		return -1
	}
	return get("offset"), get("limit")
}

// roundTripper wraps the transport a node uses to reach its peers
// (fabric.Config.Client on a coordinator, HAConfig.Client on an HA
// node).
func (t *tracer) roundTripper(from string, next http.RoundTripper) http.RoundTripper {
	if t == nil {
		return next
	}
	return &tracedTransport{t: t, from: from, next: next}
}

// dialCounter counts the connections a coordinator opens to its
// workers.
func (t *tracer) dialCounter() func() {
	if t == nil {
		return nil
	}
	return func() {
		if t.on.Load() {
			t.dials.Add(1)
		}
	}
}

type tracedTransport struct {
	t    *tracer
	from string
	next http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.t
	if !t.on.Load() {
		return tt.next.RoundTrip(req)
	}
	kind := kindRPC
	switch {
	case req.URL.Path == "/v1/replica/heartbeat":
		kind = kindBackground
	case req.URL.Path == "/v1/sweep":
		kind = kindDispatch
	}
	s := span{kind: kind, node: tt.from, peer: req.URL.Hostname(), path: req.Method + " " + req.URL.Path,
		start: t.now(), out: max(req.ContentLength, 0)}
	s.off, s.lim = rangeOf(req.URL.Query())
	resp, err := tt.next.RoundTrip(req)
	s.ttfb = t.now()
	if err != nil {
		s.end = s.ttfb
		t.add(s)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: t, s: s}
	return resp, nil
}

// tracedBody ends its span when the caller closes the response body,
// counting the bytes read up to then.
type tracedBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.in += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// executor wraps a node's jobs.Executor, timing each execution and
// each emit; every checkpointEvery-th emit closes a checkpoint.
func (t *tracer) executor(node string, next jobs.Executor) jobs.Executor {
	if t == nil {
		return next
	}
	return func(ctx context.Context, request []byte, offset int, start func(total int) error, emit func(line []byte) error) error {
		if !t.on.Load() {
			return next(ctx, request, offset, start, emit)
		}
		s := span{kind: kindExec, node: node, start: t.now()}
		k := offset
		err := next(ctx, request, offset, start, func(line []byte) error {
			k++
			e := span{kind: kindEmit, node: node, start: t.now(), ckpt: k%jobCheckpointEvery == 0}
			err := emit(line)
			e.end = t.now()
			t.add(e)
			return err
		})
		s.end = t.now()
		t.add(s)
		return err
	}
}

// sink wraps the Replicator a promotion hands the job manager.
func (t *tracer) sink(node string, next jobs.ReplicationSink) jobs.ReplicationSink {
	if t == nil {
		return next
	}
	return &tracedSink{t: t, node: node, next: next}
}

type tracedSink struct {
	t    *tracer
	node string
	next jobs.ReplicationSink
}

func (s *tracedSink) timed(sub string, bytes int, call func() error) error {
	if !s.t.on.Load() {
		return call()
	}
	sp := span{kind: kindQuorum, node: s.node, sub: sub, start: s.t.now(), out: int64(bytes)}
	err := call()
	sp.end = s.t.now()
	s.t.add(sp)
	return err
}

func (s *tracedSink) JobCreated(meta jobs.Meta, request []byte) error {
	return s.timed("create", len(request), func() error { return s.next.JobCreated(meta, request) })
}

func (s *tracedSink) Checkpoint(id string, meta jobs.Meta, from int, lines []byte) error {
	return s.timed("checkpoint", len(lines), func() error { return s.next.Checkpoint(id, meta, from, lines) })
}

func (s *tracedSink) JobRemoved(id string) error {
	return s.timed("remove", 0, func() error { return s.next.JobRemoved(id) })
}
