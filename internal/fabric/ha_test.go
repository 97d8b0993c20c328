package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/jobs"
)

// This file is the failover drill ground: real 3-node fleets (each node
// its own store directory, replica, HA controller and HTTP server; no
// shared disk), leaders killed at every checkpoint boundary, partitions
// healed into fencing, and the replication channel run through the
// chaos matrix — the final results must always be byte-identical to an
// uninterrupted single-node run.

// swapHandler lets the fleet's HTTP servers start before their HA
// controllers exist (the controllers need every peer's URL first).
type swapHandler struct{ v atomic.Value }

type handlerBox struct{ h http.Handler }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(handlerBox).h.ServeHTTP(w, r)
}

// inboundGate drops every inbound request when armed — one half of a
// full network partition (the other half is the node's outbound
// client).
type inboundGate struct {
	mu   sync.Mutex
	drop bool
}

func (g *inboundGate) set(drop bool) {
	g.mu.Lock()
	g.drop = drop
	g.mu.Unlock()
}

func (g *inboundGate) middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		drop := g.drop
		g.mu.Unlock()
		if drop {
			panic(http.ErrAbortHandler) // cut the connection, like a dead link
		}
		inner.ServeHTTP(w, r)
	})
}

// dropTransport drops every outbound request when armed — the other
// half of the partition.
type dropTransport struct {
	mu   sync.Mutex
	drop bool
	next http.RoundTripper
}

func (d *dropTransport) set(drop bool) {
	d.mu.Lock()
	d.drop = drop
	d.mu.Unlock()
}

func (d *dropTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	drop := d.drop
	d.mu.Unlock()
	if drop {
		return nil, fmt.Errorf("ha test: outbound partitioned")
	}
	return d.next.RoundTrip(req)
}

// haNode is one fleet member under test.
type haNode struct {
	t       *testing.T
	self    string
	dir     string
	store   *jobs.Store
	svc     *api.Service
	ha      *HA
	ts      *httptest.Server
	inbound *inboundGate

	// exec is the node's job executor (default: the local sweep
	// executor; the distributed test installs a coordinator's).
	exec jobs.Executor
	// gateAt, when >= 0, blocks the executor before emitting line index
	// gateAt — parked exactly on a checkpoint boundary when gateAt is
	// even and CheckpointEvery is 2. reached is closed the first time
	// the gate blocks; closing gate releases it.
	gateAt      int
	gate        chan struct{}
	reached     chan struct{}
	reachedOnce sync.Once

	killOnce sync.Once
	mu       sync.Mutex
	mgr      *jobs.Manager
}

// onPromote is the node's execution-plane factory: a jobs.Manager over
// the node's store with the promotion's Replicator as its sink, exactly
// as cmd/serve wires it.
func (n *haNode) onPromote(term uint64, repl *Replicator) (func(), error) {
	exec := n.exec
	if n.gateAt >= 0 {
		inner := exec
		at := n.gateAt
		exec = func(ctx context.Context, req []byte, offset int, start func(int) error, emit func([]byte) error) error {
			i := offset
			return inner(ctx, req, offset, start, func(line []byte) error {
				if i == at {
					n.reachedOnce.Do(func() { close(n.reached) })
					select {
					case <-n.gate:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
				i++
				return emit(line)
			})
		}
	}
	mgr, err := jobs.NewManager(jobs.Config{
		Dir:             n.dir,
		CheckpointEvery: 2,
		Exec:            exec,
		Normalize:       n.svc.NormalizeJobRequest,
		Replicate:       repl,
	})
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.mgr = mgr
	n.mu.Unlock()
	n.svc.AttachJobs(mgr)
	return func() {
		n.svc.DetachJobs()
		mgr.Close()
	}, nil
}

// manager waits for the node's execution plane (built at promotion).
func (n *haNode) manager(t *testing.T) *jobs.Manager {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n.mu.Lock()
		mgr := n.mgr
		n.mu.Unlock()
		if mgr != nil {
			return mgr
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never built a manager (never promoted?)", n.self)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill is the crash: stop serving, stop the controller, kill the
// manager. Idempotent (it doubles as the test cleanup).
func (n *haNode) kill() {
	n.killOnce.Do(func() {
		n.ts.Close()
		n.ha.Close()
		n.mu.Lock()
		mgr := n.mgr
		n.mu.Unlock()
		if mgr != nil {
			mgr.Close()
		}
	})
}

// newHACluster builds and starts an n-node fleet: node 0 is the initial
// leader at term 1, everyone else a standby. mutate, when non-nil, may
// adjust each node and its HAConfig (executors, clients, gates) before
// the controller is built.
func newHACluster(t *testing.T, n int, mutate func(i int, node *haNode, cfg *HAConfig)) []*haNode {
	t.Helper()
	nodes := make([]*haNode, n)
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range nodes {
		dir := t.TempDir()
		store, err := jobs.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		node := &haNode{
			t:       t,
			dir:     dir,
			store:   store,
			svc:     api.NewService(testOptions()),
			inbound: &inboundGate{},
			gateAt:  -1,
			gate:    make(chan struct{}),
			reached: make(chan struct{}),
		}
		swaps[i] = &swapHandler{}
		swaps[i].v.Store(handlerBox{http.NotFoundHandler()})
		node.ts = httptest.NewServer(node.inbound.middleware(swaps[i]))
		urls[i] = node.ts.URL
		node.self = urls[i]
		nodes[i] = node
	}
	for i, node := range nodes {
		cfg := HAConfig{
			Self:           urls[i],
			Peers:          urls,
			Store:          node.store,
			HeartbeatEvery: 30 * time.Millisecond,
			LeaseTTL:       120 * time.Millisecond,
			PromoteStagger: 90 * time.Millisecond,
			Attempts:       5,
			Backoff:        2 * time.Millisecond,
			Timeout:        2 * time.Second,
			Leader:         i == 0,
			OnPromote:      node.onPromote,
			Logf:           t.Logf,
		}
		if mutate != nil {
			mutate(i, node, &cfg)
		}
		if node.exec == nil {
			node.exec = node.svc.JobExecutor()
		}
		ha, err := NewHA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node.ha = ha
		swaps[i].v.Store(handlerBox{ha.Handler(api.NewServer(node.svc))})
	}
	for _, node := range nodes {
		if err := node.ha.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.kill)
	}
	return nodes
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func haCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// awaitGate waits for a node's gated executor to park.
func awaitGate(t *testing.T, n *haNode) {
	t.Helper()
	select {
	case <-n.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("gated executor never reached its boundary")
	}
}

// isPrefix reports whether got is a byte prefix of ref — the invariant
// every replica's results file must satisfy at all times.
func isPrefix(got, ref []byte) bool {
	return len(got) <= len(ref) && bytes.Equal(ref[:len(got)], got)
}

// TestHAFailoverEveryCheckpointBoundary is the tentpole drill: for
// EVERY checkpoint boundary of a 25-point sweep (CheckpointEvery=2 →
// 13 boundaries), park the leader's executor exactly on the boundary,
// kill the node (server, controller and manager), and require that the
// first standby promotes to term 2 in deterministic order, adopts the
// replicated job, resumes it from the quorum-acknowledged offset, and
// finishes with a results file byte-identical to an uninterrupted
// single-node run — with the surviving replica holding the same bytes.
func TestHAFailoverEveryCheckpointBoundary(t *testing.T) {
	_, want := singleNodeLines(t, sweepBody)
	ref := bytes.Join(want, nil)
	boundaries := len(want)/2 + 1 // kill after 0, 2, 4, …, 24 durable lines
	for b := 0; b < boundaries; b++ {
		t.Run(fmt.Sprintf("boundary-%d", b), func(t *testing.T) {
			nodes := newHACluster(t, 3, func(i int, node *haNode, cfg *HAConfig) {
				if i == 0 {
					node.gateAt = 2 * b
				}
			})
			meta, created, err := nodes[0].manager(t).Submit([]byte(sweepBody))
			if err != nil || !created {
				t.Fatalf("submit: created=%v err=%v", created, err)
			}
			awaitGate(t, nodes[0])
			// Exactly b checkpoints are quorum-durable; the kill lands on
			// the boundary.
			nodes[0].kill()

			waitFor(t, 10*time.Second, "standby promotion", func() bool {
				return nodes[1].ha.Role() == RoleLeader
			})
			if term := nodes[1].ha.Term(); term != 2 {
				t.Errorf("promoted standby term = %d, want 2", term)
			}
			if role := nodes[2].ha.Role(); role != RoleStandby {
				t.Errorf("second standby role = %s, want standby (deterministic order)", role)
			}

			final, err := nodes[1].manager(t).Wait(haCtx(t), meta.ID)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != jobs.Done {
				t.Fatalf("resumed job finished %s (%s), want done", final.State, final.Error)
			}
			if got := readResults(t, nodes[1].store, meta.ID); !bytes.Equal(got, ref) {
				t.Fatalf("boundary %d: resumed results differ from single-node run (%d vs %d bytes)", b, len(got), len(ref))
			}
			// The new leader's checkpoints were quorum-acked by the last
			// surviving replica: it holds the identical file.
			waitFor(t, 10*time.Second, "replica catch-up", func() bool {
				return bytes.Equal(readResults(t, nodes[2].store, meta.ID), ref)
			})
		})
	}
}

// TestHAPartitionThenFence: the old leader is partitioned mid-job (both
// directions), a standby promotes and finishes the job, and on heal the
// stale leader's first write is rejected with 412 — it detects, halts
// (its unquorumed checkpoint fails the local job, leaving a clean byte
// prefix), demotes to standby at the new term, and rejoins the
// replication plane. No split brain, no double append.
func TestHAPartitionThenFence(t *testing.T) {
	_, want := singleNodeLines(t, sweepBody)
	ref := bytes.Join(want, nil)
	outbound := &dropTransport{next: http.DefaultTransport}
	nodes := newHACluster(t, 3, func(i int, node *haNode, cfg *HAConfig) {
		if i == 0 {
			node.gateAt = 10 // park mid-job, 5 checkpoints replicated
			cfg.Client = &http.Client{Transport: outbound}
		}
	})
	meta, _, err := nodes[0].manager(t).Submit([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	awaitGate(t, nodes[0])

	// Partition the leader: outbound heartbeats and replication drop,
	// inbound connections die. It still believes it is leading.
	outbound.set(true)
	nodes[0].inbound.set(true)

	waitFor(t, 10*time.Second, "standby promotion during partition", func() bool {
		return nodes[1].ha.Role() == RoleLeader
	})

	// Release the stale leader's executor: its next checkpoint cannot
	// reach a quorum, so the job fails locally — the halt — with the
	// emitted lines still a clean byte prefix on its disk.
	close(nodes[0].gate)
	waitFor(t, 10*time.Second, "stale leader checkpoint rejection", func() bool {
		m, err := nodes[0].manager(t).Get(meta.ID)
		return err == nil && m.State == jobs.Failed
	})
	if m, _ := nodes[0].manager(t).Get(meta.ID); !strings.Contains(m.Error, "quorum") {
		t.Errorf("stale leader's failure does not name the lost quorum: %q", m.Error)
	}
	if got := readResults(t, nodes[0].store, meta.ID); !isPrefix(got, ref) || len(got) == 0 {
		t.Fatal("stale leader's results are not a byte prefix of the canonical stream")
	}

	// The new leader finishes the job from the replicated offset.
	final, err := nodes[1].manager(t).Wait(haCtx(t), meta.ID)
	if err != nil || final.State != jobs.Done {
		t.Fatalf("job on new leader: %+v, %v", final, err)
	}
	if got := readResults(t, nodes[1].store, meta.ID); !bytes.Equal(got, ref) {
		t.Fatal("new leader's results differ from single-node run")
	}
	if got := readResults(t, nodes[2].store, meta.ID); !bytes.Equal(got, ref) {
		t.Fatal("surviving replica's results differ from single-node run")
	}

	// Heal. The stale leader's next heartbeat meets term 2, fences it,
	// and it rejoins as a standby.
	outbound.set(false)
	nodes[0].inbound.set(false)
	waitFor(t, 10*time.Second, "stale leader demotion", func() bool {
		return nodes[0].ha.Role() == RoleStandby
	})
	if term := nodes[0].ha.Term(); term != 2 {
		t.Errorf("demoted leader term = %d, want 2", term)
	}
	if nodes[0].svc.Jobs() != nil {
		t.Error("demoted leader still has a job manager attached")
	}

	// The rejoined standby receives the next job's replication stream.
	body2 := `{"scenario":{"mtbf":1800},"tbase":10000,"runs":2,"seed":8}`
	_, want2 := singleNodeLines(t, body2)
	ref2 := bytes.Join(want2, nil)
	meta2, _, err := nodes[1].manager(t).Submit([]byte(body2))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := nodes[1].manager(t).Wait(haCtx(t), meta2.ID); err != nil || final.State != jobs.Done {
		t.Fatalf("post-heal job: %+v, %v", final, err)
	}
	if got := readResults(t, nodes[0].store, meta2.ID); !bytes.Equal(got, ref2) {
		t.Fatal("rejoined standby did not receive the post-heal job's bytes")
	}
}

// replicaDataChaos applies chaos to the replication DATA channel
// (create/checkpoint/delete) while leaving the heartbeat lease signal
// clean — the matrix targets the data plane, not the failure detector.
type replicaDataChaos struct {
	chaos http.RoundTripper
	next  http.RoundTripper
}

func (t *replicaDataChaos) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasPrefix(req.URL.Path, "/v1/replica/jobs/") {
		return t.chaos.RoundTrip(req)
	}
	return t.next.RoundTrip(req)
}

// TestHAReplicationChaosMatrix runs every chaos fault class over the
// leader→replica checkpoint channel of a live 3-node fleet. Whatever
// the channel does — drop, delay, corrupt-in-flight, hang, partition a
// peer — the job must complete byte-identical on the leader, at least
// one replica must hold the identical file (the write quorum), and
// every replica's file must be a byte prefix of the canonical stream
// (corruption never lands: the replica-side CRC-32C frames reject it).
func TestHAReplicationChaosMatrix(t *testing.T) {
	seed := chaosSeed(t)
	_, want := singleNodeLines(t, sweepBody)
	ref := bytes.Join(want, nil)
	for _, class := range chaos.Classes {
		t.Run(string(class), func(t *testing.T) {
			nodes := newHACluster(t, 3, func(i int, node *haNode, cfg *HAConfig) {
				if i != 0 {
					return
				}
				rule := chaos.Rule{Site: chaos.SiteReplica, Class: class, P: 0.25}
				switch class {
				case chaos.Delay:
					rule.Delay = 3 * time.Millisecond
				case chaos.Hang:
					rule.P = 0.1
				case chaos.Partition:
					rule.P = 1
					rule.Peer = strings.TrimPrefix(cfg.Peers[2], "http://")
				}
				plan := chaos.Plan{Seed: seed, Rules: []chaos.Rule{rule}}
				inj, err := chaos.New(plan)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("chaos plan %q (replay: CHAOS_SEED=%d)", plan, seed)
				cfg.Client = &http.Client{Transport: &replicaDataChaos{
					chaos: &chaos.Transport{Injector: inj, Site: chaos.SiteReplica, CorruptRequests: true},
					next:  http.DefaultTransport,
				}}
				cfg.Attempts = 8
				cfg.Backoff = 2 * time.Millisecond
				cfg.Timeout = 250 * time.Millisecond
			})
			meta, _, err := nodes[0].manager(t).Submit([]byte(sweepBody))
			if err != nil {
				t.Fatalf("submit under %s chaos: %v", class, err)
			}
			final, err := nodes[0].manager(t).Wait(haCtx(t), meta.ID)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != jobs.Done {
				t.Fatalf("job under %s chaos finished %s (%s), want done", class, final.State, final.Error)
			}
			if got := readResults(t, nodes[0].store, meta.ID); !bytes.Equal(got, ref) {
				t.Fatal("leader results differ from single-node run")
			}
			complete := 0
			for _, n := range nodes[1:] {
				got := readResults(t, n.store, meta.ID)
				if !isPrefix(got, ref) {
					t.Fatalf("replica %s holds bytes outside the canonical stream", n.self)
				}
				if bytes.Equal(got, ref) {
					complete++
				}
			}
			if complete < 1 {
				t.Fatalf("no replica holds the complete file (quorum violated) under %s", class)
			}
			if class == chaos.Partition {
				// The unpartitioned peer is the quorum; the partitioned one
				// must simply have no divergent bytes (checked above).
				if got := readResults(t, nodes[1].store, meta.ID); !bytes.Equal(got, ref) {
					t.Fatal("unpartitioned replica incomplete")
				}
			}
		})
	}
}

// TestHADistributedFailoverChaosBoundary is the full-stack drill: the
// job executes DISTRIBUTED (each HA node fronts a coordinator over a
// shared worker tier, with the coordinator's backoff jitter seeded from
// CHAOS_SEED), the leader is killed at a chaos-chosen checkpoint
// boundary, and the promoted standby resumes the distributed sweep to a
// byte-identical result.
func TestHADistributedFailoverChaosBoundary(t *testing.T) {
	seed := chaosSeed(t)
	_, want := singleNodeLines(t, sweepBody)
	ref := bytes.Join(want, nil)
	b := int(seed % uint64(len(want)/2+1))
	t.Logf("chaos-chosen kill boundary %d (replay: CHAOS_SEED=%d)", b, seed)

	workers := make([]string, 3)
	for i := range workers {
		ts := httptest.NewServer(api.NewServer(api.NewService(testOptions())))
		t.Cleanup(ts.Close)
		workers[i] = ts.URL
	}
	nodes := newHACluster(t, 3, func(i int, node *haNode, cfg *HAConfig) {
		coord, err := New(Config{
			Service:    node.svc,
			Workers:    workers,
			JitterSeed: seed + uint64(i), // derived from CHAOS_SEED: replayable
			Logf:       t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.exec = coord.Executor()
		if i == 0 {
			node.gateAt = 2 * b
		}
	})
	meta, _, err := nodes[0].manager(t).Submit([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	awaitGate(t, nodes[0])
	nodes[0].kill()

	waitFor(t, 10*time.Second, "standby promotion", func() bool {
		return nodes[1].ha.Role() == RoleLeader
	})
	final, err := nodes[1].manager(t).Wait(haCtx(t), meta.ID)
	if err != nil || final.State != jobs.Done {
		t.Fatalf("resumed distributed job: %+v, %v", final, err)
	}
	if got := readResults(t, nodes[1].store, meta.ID); !bytes.Equal(got, ref) {
		t.Fatal("distributed failover results differ from single-node run")
	}
	waitFor(t, 10*time.Second, "replica catch-up", func() bool {
		return bytes.Equal(readResults(t, nodes[2].store, meta.ID), ref)
	})
}

// TestHAReadyzOverlay pins the health surface: the leader's /readyz
// carries role/term/peer-lag/quorum, a standby reports its lease view
// and serves 503 on the job routes, and a leader that loses its
// replicas turns degraded.
func TestHAReadyzOverlay(t *testing.T) {
	nodes := newHACluster(t, 3, nil)
	readyz := func(n *haNode) (int, map[string]any) {
		resp, err := http.Get(n.ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var report map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, report
	}
	haSection := func(report map[string]any) map[string]any {
		ha, ok := report["ha"].(map[string]any)
		if !ok {
			t.Fatalf("/readyz has no ha section: %v", report)
		}
		return ha
	}

	code, report := readyz(nodes[0])
	ha := haSection(report)
	if code != http.StatusOK || ha["role"] != "leader" || ha["term"] != float64(1) {
		t.Fatalf("leader /readyz: code %d, ha %v", code, ha)
	}
	// Quorum health turns true once the first heartbeat round is acked.
	waitFor(t, 5*time.Second, "leader quorum health", func() bool {
		_, report := readyz(nodes[0])
		ok, _ := haSection(report)["quorumOk"].(bool)
		return ok
	})
	_, report = readyz(nodes[0])
	ha = haSection(report)
	if _, hasPeers := ha["peers"]; !hasPeers {
		// Peer lag appears once the leader has replicated something;
		// quorum fields must be present regardless.
		if _, hasQuorum := ha["quorum"]; !hasQuorum {
			t.Fatalf("leader /readyz lacks peer/quorum detail: %v", ha)
		}
	}

	waitFor(t, 5*time.Second, "standby lease view", func() bool {
		_, report := readyz(nodes[1])
		return haSection(report)["term"] == float64(1)
	})
	_, report = readyz(nodes[1])
	if ha := haSection(report); ha["role"] != "standby" {
		t.Fatalf("standby /readyz role: %v", ha)
	}
	// Standby job surface: mounted, explicit 503 (retryable), not 404.
	resp, err := http.Get(nodes[1].ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby /v1/jobs: status %d, want 503", resp.StatusCode)
	}

	// Kill both replicas: the leader keeps serving but must report
	// degraded — it is one disk away from losing new work.
	nodes[1].kill()
	nodes[2].kill()
	waitFor(t, 5*time.Second, "leader degradation", func() bool {
		code, report := readyz(nodes[0])
		degraded, _ := report["degraded"].(bool)
		return code == http.StatusOK && degraded
	})
}
