package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/jobs"
)

type topologyKind int

const (
	topoSingle topologyKind = iota // one node
	topoFleet                      // a coordinator over three workers
	topoHA                         // a leader and two standbys
	topoJobs                       // one node with a job store
)

// Node roles, which also decide how the tracer names a node's spans.
const (
	roleSingle      = "single"
	roleCoordinator = "coordinator"
	roleWorker      = "worker"
	roleHA          = "ha"
)

// resolver maps the fixed node host names (worker-0.bench, …) to the
// ephemeral loopback addresses the nodes listen on. The fabric's hash
// ring hashes worker URLs, so naming nodes instead of ports gives every
// run the same ring, and with it the same dispatch ranges.
type resolver struct {
	mu     sync.RWMutex
	addrs  map[string]string
	dialer net.Dialer
}

func newResolver() *resolver {
	return &resolver{addrs: make(map[string]string), dialer: net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}}
}

func (r *resolver) add(host, addr string) {
	r.mu.Lock()
	r.addrs[host] = addr
	r.mu.Unlock()
}

func (r *resolver) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	target, ok := r.addrs[host]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("perfbench: unknown node %q", host)
	}
	return r.dialer.DialContext(ctx, network, target)
}

// transport is a fresh fabric.DefaultTransport whose dialer resolves
// node names; onDial, if set, counts the connections it opens.
func (r *resolver) transport(onDial func()) *http.Transport {
	tr := fabric.DefaultTransport()
	tr.Proxy = nil
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if onDial != nil {
			onDial()
		}
		return r.dial(ctx, network, addr)
	}
	return tr
}

// node is one in-process server.
type node struct {
	name  string // fixed host name
	role  string
	svc   *api.Service
	store *jobs.Store // HA nodes only
	srv   *http.Server
	done  chan struct{}
}

func (n *node) url() string { return "http://" + n.name }

// topology is one workload's running fleet.
type topology struct {
	kind    topologyKind
	dir     string
	res     *resolver
	nodes   []*node
	entry   *node
	workers []string // fleet worker URLs, in ring order
	has     []*fabric.HA
	mu      sync.Mutex
	mgrs    []*jobs.Manager
}

// buildTopology brings up a topology of the given kind with its job
// stores under dir. tr, when non-nil, instruments every boundary.
func buildTopology(kind topologyKind, dir string, seed uint64, tr *tracer) (*topology, error) {
	t := &topology{kind: kind, dir: dir, res: newResolver()}
	var err error
	switch kind {
	case topoSingle:
		err = t.buildSingle(tr)
	case topoFleet:
		err = t.buildFleet(seed, tr)
	case topoHA:
		err = t.buildHA(seed, tr)
	case topoJobs:
		err = t.buildJobs(seed, tr)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *topology) buildSingle(tr *tracer) error {
	n := &node{name: "node-0.bench", role: roleSingle, svc: api.NewService(api.Options{})}
	t.entry = n
	return t.serve(n, api.NewServer(n.svc), tr)
}

func (t *topology) buildFleet(seed uint64, tr *tracer) error {
	for i := 0; i < 3; i++ {
		w := &node{name: fmt.Sprintf("worker-%d.bench", i), role: roleWorker, svc: api.NewService(api.Options{})}
		if err := t.serve(w, api.NewServer(w.svc), tr); err != nil {
			return err
		}
		t.workers = append(t.workers, w.url())
	}
	c := &node{name: "coord.bench", role: roleCoordinator, svc: api.NewService(api.Options{})}
	client := &http.Client{Transport: tr.roundTripper(c.name, t.res.transport(tr.dialCounter()))}
	coord, err := fabric.New(fabric.Config{
		Service:    c.svc,
		Workers:    t.workers,
		Client:     client,
		JitterSeed: mix(seed),
	})
	if err != nil {
		return err
	}
	t.entry = c
	return t.serve(c, coord.Handler(api.NewServer(c.svc)), tr)
}

// buildHA wires three nodes as cmd/serve -peers does: each has its own
// job store, the first leads at term 1, and every promotion builds a
// job manager whose replication sink is the term's Replicator.
func (t *topology) buildHA(seed uint64, tr *tracer) error {
	var peers []string
	for i := 0; i < 3; i++ {
		peers = append(peers, fmt.Sprintf("http://ha-%d.bench", i))
	}
	for i := range peers {
		n := &node{name: fmt.Sprintf("ha-%d.bench", i), role: roleHA, svc: api.NewService(api.Options{})}
		store, err := jobs.NewStore(filepath.Join(t.dir, fmt.Sprintf("ha-%d", i)))
		if err != nil {
			return err
		}
		n.store = store
		svc, dir := n.svc, store.Dir()
		client := &http.Client{Transport: tr.roundTripper(n.name, t.res.transport(nil))}
		ha, err := fabric.NewHA(fabric.HAConfig{
			Self:   n.url(),
			Peers:  peers,
			Store:  store,
			Client: client,
			Leader: i == 0,
			OnPromote: func(term uint64, repl *fabric.Replicator) (func(), error) {
				mgr, err := t.attachManager(n, dir, seed, tr, tr.sink(n.name, repl))
				if err != nil {
					return nil, err
				}
				return func() { svc.DetachJobs(); mgr.Close() }, nil
			},
		})
		if err != nil {
			return err
		}
		t.has = append(t.has, ha)
		if err := t.serve(n, ha.Handler(api.NewServer(svc)), tr); err != nil {
			return err
		}
	}
	t.entry = t.nodes[0]
	// Standbys first, so the leader's first heartbeat round finds every
	// peer watching its lease.
	for i := len(t.has) - 1; i >= 0; i-- {
		if err := t.has[i].Start(); err != nil {
			return err
		}
	}
	return nil
}

// buildJobs brings up one node with a job store, as cmd/serve runs by
// default.
func (t *topology) buildJobs(seed uint64, tr *tracer) error {
	n := &node{name: "node-0.bench", role: roleSingle, svc: api.NewService(api.Options{})}
	if _, err := t.attachManager(n, filepath.Join(t.dir, "node-0"), seed, tr, nil); err != nil {
		return err
	}
	t.entry = n
	return t.serve(n, api.NewServer(n.svc), tr)
}

// attachManager builds a job manager over dir with cmd/serve's defaults
// (two concurrent jobs, no queue bound) and a checkpoint every
// jobCheckpointEvery points, and attaches it to n's service. repl is
// the replication sink of an HA leader, nil on a single node.
func (t *topology) attachManager(n *node, dir string, seed uint64, tr *tracer, repl jobs.ReplicationSink) (*jobs.Manager, error) {
	mgr, err := jobs.NewManager(jobs.Config{
		Dir:             dir,
		MaxConcurrent:   2,
		CheckpointEvery: jobCheckpointEvery,
		Exec:            tr.executor(n.name, n.svc.JobExecutor()),
		Normalize:       n.svc.NormalizeJobRequest,
		Replicate:       repl,
		JanitorSeed:     int64(mix(seed) >> 1),
	})
	if err != nil {
		return nil, err
	}
	n.svc.AttachJobs(mgr)
	t.mu.Lock()
	t.mgrs = append(t.mgrs, mgr)
	t.mu.Unlock()
	return mgr, nil
}

// serve starts n on an ephemeral loopback port under its fixed name.
func (t *topology) serve(n *node, h http.Handler, tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.srv = &http.Server{Handler: tr.handler(n, h), ReadHeaderTimeout: 10 * time.Second}
	n.done = make(chan struct{})
	t.res.add(n.name, ln.Addr().String())
	t.nodes = append(t.nodes, n)
	go func() {
		defer close(n.done)
		if err := n.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench:", n.name, err)
		}
	}()
	return nil
}

// standbyStores returns the job stores of the HA standbys.
func (t *topology) standbyStores() []*jobs.Store {
	var out []*jobs.Store
	for _, n := range t.nodes {
		if n.store != nil && n != t.entry {
			out = append(out, n.store)
		}
	}
	return out
}

// close stops every controller, manager and server of the topology,
// waits for them, and removes its job stores.
func (t *topology) close() {
	for _, ha := range t.has {
		ha.Close()
	}
	t.mu.Lock()
	mgrs := t.mgrs
	t.mgrs = nil
	t.mu.Unlock()
	for _, m := range mgrs {
		m.Close()
	}
	for _, n := range t.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			n.srv.Close()
		}
		cancel()
		<-n.done
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}
