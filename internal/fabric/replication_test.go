package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
)

// This file unit-tests the replication wire protocol — quorum fan-out,
// gap backfill, job re-create, frame integrity, truncate-to-prefix and
// term fencing — against real Replica HTTP servers over real stores.
// The end-to-end failover behavior lives in ha_test.go.

// replLine is the deterministic result line for point i.
func replLine(i int) []byte { return []byte(fmt.Sprintf("{\"point\":%d}\n", i)) }

// replLines is the concatenated lines [from, to).
func replLines(from, to int) []byte {
	var b bytes.Buffer
	for i := from; i < to; i++ {
		b.Write(replLine(i))
	}
	return b.Bytes()
}

// replicaNode is one replica under test: its store, the Replica, and
// an HTTP server exposing /v1/replica/*.
type replicaNode struct {
	store *jobs.Store
	rp    *Replica
	url   string
}

func newReplicaNode(t *testing.T) *replicaNode {
	t.Helper()
	store, err := jobs.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplica(ReplicaConfig{Store: store, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	rp.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &replicaNode{store: store, rp: rp, url: ts.URL}
}

// replTestJob returns a canonical request, its content-keyed id, and
// the initial meta, plus a leader-side store already holding the job.
func replTestJob(t *testing.T, lines int) (leader *jobs.Store, id string, request []byte, meta jobs.Meta) {
	t.Helper()
	request = []byte(`{"n":9}`)
	id = jobs.IDFor(request)
	meta = jobs.Meta{ID: id, State: jobs.Pending, Total: 9, CreatedAt: 1}
	leader, err := jobs.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Create(meta, request); err != nil {
		t.Fatal(err)
	}
	if lines > 0 {
		run := meta
		run.State, run.Completed = jobs.Running, lines
		if _, err := leader.ApplyReplicated(id, 0, replLines(0, lines), run); err != nil {
			t.Fatal(err)
		}
	}
	return leader, id, request, meta
}

func newTestReplicator(t *testing.T, leader *jobs.Store, peers []string, quorum int) *Replicator {
	t.Helper()
	r, err := NewReplicator(ReplicatorConfig{
		Self:    "http://leader.test",
		Peers:   peers,
		Store:   leader,
		Quorum:  quorum,
		Backoff: time.Millisecond,
		Timeout: 5 * time.Second,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func readResults(t *testing.T, s *jobs.Store, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(s.ResultsPath(id))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		t.Fatal(err)
	}
	return data
}

// TestReplicationQuorumRoundTrip drives the full sink contract against
// two live replicas: create, two checkpoints, status, delete — every
// mutation must land byte-identically on both.
func TestReplicationQuorumRoundTrip(t *testing.T) {
	leader, id, request, meta := replTestJob(t, 0)
	a, b := newReplicaNode(t), newReplicaNode(t)
	repl := newTestReplicator(t, leader, []string{a.url, b.url}, 2)

	if err := repl.JobCreated(meta, request); err != nil {
		t.Fatalf("JobCreated: %v", err)
	}
	for _, n := range []*replicaNode{a, b} {
		got, err := n.store.Request(id)
		if err != nil || !bytes.Equal(got, request) {
			t.Fatalf("replica request after create: %q, %v", got, err)
		}
	}

	// First checkpoint: lines [0,4). Leader appends locally first (the
	// Manager always makes lines durable before the sink runs).
	run := meta
	run.State, run.Completed = jobs.Running, 4
	if _, err := leader.ApplyReplicated(id, 0, replLines(0, 4), run); err != nil {
		t.Fatal(err)
	}
	if err := repl.Checkpoint(id, run, 0, replLines(0, 4)); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	// Second: [4,9) and the terminal meta.
	done := run
	done.State, done.Completed = jobs.Done, 9
	if _, err := leader.ApplyReplicated(id, 4, replLines(4, 9), done); err != nil {
		t.Fatal(err)
	}
	if err := repl.Checkpoint(id, done, 4, replLines(4, 9)); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	for _, n := range []*replicaNode{a, b} {
		if got := readResults(t, n.store, id); !bytes.Equal(got, replLines(0, 9)) {
			t.Fatalf("replica results:\n%s\nwant:\n%s", got, replLines(0, 9))
		}
		m, err := n.store.ReadMeta(id)
		if err != nil || m.State != jobs.Done || m.Completed != 9 {
			t.Fatalf("replica meta: %+v, %v", m, err)
		}
	}

	peers, ok := repl.Status()
	if !ok {
		t.Fatal("quorum not OK after two clean rounds")
	}
	for _, p := range peers {
		if !p.Acked || p.LagLines != 0 {
			t.Fatalf("peer status %+v, want acked with zero lag", p)
		}
	}

	if err := repl.JobRemoved(id); err != nil {
		t.Fatalf("JobRemoved: %v", err)
	}
	for _, n := range []*replicaNode{a, b} {
		if _, err := n.store.ReadMeta(id); !errors.Is(err, jobs.ErrNotFound) {
			t.Fatalf("job still on replica after remove: %v", err)
		}
	}
}

// TestReplicationGapBackfillHeals: a replica that missed earlier
// checkpoints (it was down) answers 409 with its durable count, and the
// leader backfills the whole range from its local store — one
// Checkpoint call, no manual recovery.
func TestReplicationGapBackfillHeals(t *testing.T) {
	leader, id, request, meta := replTestJob(t, 9)
	a, b := newReplicaNode(t), newReplicaNode(t)

	// Both replicas know the job, but only A received the first
	// checkpoint — B was down for it.
	early := newTestReplicator(t, leader, []string{a.url, b.url}, 2)
	if err := early.JobCreated(meta, request); err != nil {
		t.Fatal(err)
	}
	run := meta
	run.State, run.Completed = jobs.Running, 4
	onlyA := newTestReplicator(t, leader, []string{a.url}, 1)
	if err := onlyA.Checkpoint(id, run, 0, replLines(0, 4)); err != nil {
		t.Fatal(err)
	}

	// The next full-fleet checkpoint starts at line 4; B holds 0 lines
	// and must be backfilled transparently.
	done := run
	done.State, done.Completed = jobs.Done, 9
	if err := early.Checkpoint(id, done, 4, replLines(4, 9)); err != nil {
		t.Fatalf("checkpoint over lagging replica: %v", err)
	}
	for _, n := range []*replicaNode{a, b} {
		if got := readResults(t, n.store, id); !bytes.Equal(got, replLines(0, 9)) {
			t.Fatalf("replica results after backfill:\n%s\nwant:\n%s", got, replLines(0, 9))
		}
	}
}

// TestReplicationRecreateHealsFreshReplica: a replica with a fresh disk
// (no job at all) answers 404; the leader re-creates the job there and
// then heals the line gap — both within one Checkpoint call.
func TestReplicationRecreateHealsFreshReplica(t *testing.T) {
	leader, id, _, meta := replTestJob(t, 9)
	fresh := newReplicaNode(t)
	repl := newTestReplicator(t, leader, []string{fresh.url}, 1)

	done := meta
	done.State, done.Completed = jobs.Done, 9
	if err := repl.Checkpoint(id, done, 4, replLines(4, 9)); err != nil {
		t.Fatalf("checkpoint to fresh replica: %v", err)
	}
	if got := readResults(t, fresh.store, id); !bytes.Equal(got, replLines(0, 9)) {
		t.Fatalf("fresh replica after heal:\n%s\nwant:\n%s", got, replLines(0, 9))
	}
	m, err := fresh.store.ReadMeta(id)
	if err != nil || m.State != jobs.Done {
		t.Fatalf("fresh replica meta: %+v, %v", m, err)
	}
}

// TestReplicationTruncatesUnackedSuffix pins the replica invariant: a
// replica holding MORE lines than the new leader's checkpoint offset
// (a dead leader's un-quorum-acked suffix) rolls back to the offset and
// re-appends — the results file is always a byte prefix of the
// canonical stream.
func TestReplicationTruncatesUnackedSuffix(t *testing.T) {
	leader, id, request, meta := replTestJob(t, 9)
	n := newReplicaNode(t)
	repl := newTestReplicator(t, leader, []string{n.url}, 1)
	if err := repl.JobCreated(meta, request); err != nil {
		t.Fatal(err)
	}
	// The replica holds 6 lines from the old leader…
	run := meta
	run.State, run.Completed = jobs.Running, 6
	if err := repl.Checkpoint(id, run, 0, replLines(0, 6)); err != nil {
		t.Fatal(err)
	}
	// …but only 4 were quorum-acked: the new leader resumes at 4.
	done := meta
	done.State, done.Completed = jobs.Done, 9
	if err := repl.Checkpoint(id, done, 4, replLines(4, 9)); err != nil {
		t.Fatalf("checkpoint behind replica count: %v", err)
	}
	if got := readResults(t, n.store, id); !bytes.Equal(got, replLines(0, 9)) {
		t.Fatalf("replica after rollback:\n%s\nwant:\n%s", got, replLines(0, 9))
	}
}

// TestReplicationStaleTermFenced: a replica that has seen a newer term
// rejects every write from the old leader with 412, the replicator
// latches ErrFenced (firing OnFenced once), and every subsequent
// operation fails fast without touching the wire.
func TestReplicationStaleTermFenced(t *testing.T) {
	leader, id, request, meta := replTestJob(t, 4)
	n := newReplicaNode(t)
	n.rp.SetTerm(3, "http://new-leader.test")

	var fencedAt uint64
	repl, err := NewReplicator(ReplicatorConfig{
		Self:     "http://old-leader.test",
		Peers:    []string{n.url},
		Store:    leader,
		Quorum:   1,
		Backoff:  time.Millisecond,
		OnFenced: func(term uint64) { fencedAt = term },
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	repl.SetTerm(2) // older than the replica's 3

	if err := repl.JobCreated(meta, request); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale create error = %v, want ErrFenced", err)
	}
	if fencedAt != 3 {
		t.Fatalf("OnFenced term = %d, want 3", fencedAt)
	}
	if _, err := n.store.ReadMeta(id); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatal("fenced create still landed on the replica")
	}
	// The latch: later mutations fail immediately, no healing, no wire.
	if err := repl.Checkpoint(id, meta, 0, replLines(0, 4)); !errors.Is(err, ErrFenced) {
		t.Fatalf("post-fence checkpoint error = %v, want ErrFenced", err)
	}
	if fenced, term := repl.Fenced(); !fenced || term != 3 {
		t.Fatalf("Fenced() = %v, %d, want true, 3", fenced, term)
	}
}

// TestReplicationSameTermSplitClaim: two claimants of the SAME term
// cannot both win — the replica accepts the first and fences the
// second, which is what makes the staggered promotion race safe.
func TestReplicationSameTermSplitClaim(t *testing.T) {
	n := newReplicaNode(t)
	post := func(term uint64, claimant string) int {
		body := strings.NewReader(fmt.Sprintf(`{"term":%d,"leader":%q}`, term, claimant))
		resp, err := http.Post(n.url+"/v1/replica/heartbeat", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(2, "http://n1.test"); got != http.StatusOK {
		t.Fatalf("first term-2 claim: status %d", got)
	}
	if got := post(2, "http://n2.test"); got != http.StatusPreconditionFailed {
		t.Fatalf("second term-2 claimant: status %d, want 412", got)
	}
	if got := post(2, "http://n1.test"); got != http.StatusOK {
		t.Fatalf("winner's lease renewal: status %d", got)
	}
}

// TestReplicationCorruptFrameRejected: a checkpoint whose framed body
// was damaged in flight fails the replica-side CRC-32C check with 422
// and not one byte lands — partial application would let the replica
// claim lines it does not hold.
func TestReplicationCorruptFrameRejected(t *testing.T) {
	leader, id, request, meta := replTestJob(t, 0)
	n := newReplicaNode(t)
	repl := newTestReplicator(t, leader, []string{n.url}, 1)

	if err := repl.JobCreated(meta, request); err != nil {
		t.Fatal(err)
	}
	body := frameAll(replLines(0, 4))
	body[bytes.IndexByte(body, '{')] ^= 0x04 // flip a payload byte inside a frame

	metaJSON := fmt.Sprintf(`{"id":%q,"state":"running","total":9,"completed":4,"createdAt":1}`, id)
	req, err := http.NewRequest(http.MethodPost, n.url+"/v1/replica/jobs/"+id+"/checkpoint?from=0", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderReplicaTerm, "1")
	req.Header.Set(HeaderReplicaLeader, "http://leader.test")
	req.Header.Set(HeaderReplicaMeta, metaJSON)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt frame: status %d, want 422", resp.StatusCode)
	}
	if got := readResults(t, n.store, id); len(got) != 0 {
		t.Fatalf("corrupt checkpoint landed %d bytes", len(got))
	}
}

// TestReplicationFrameRoundTrip pins frameAll against the api package's
// unframing — the same framing the sweep stream uses on the wire.
func TestReplicationFrameRoundTrip(t *testing.T) {
	lines := replLines(0, 5)
	got, err := unframeAll(frameAll(lines))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, lines) {
		t.Fatalf("frame round trip:\n%q\nwant\n%q", got, lines)
	}
	// And a single reference frame matches api.FrameLine exactly.
	var one []byte
	one = api.AppendFrameLine(one, replLine(0))
	if !bytes.Equal(frameAll(replLine(0)), one) {
		t.Fatal("frameAll disagrees with api.AppendFrameLine")
	}
}

// FuzzUnframeAll checks the replica's checkpoint-body decoder on any
// bytes. It never panics. An accepted body is a run of frames, each the
// CRC-32C of its payload in 8 hex digits, a space and one
// newline-terminated payload, and the decoder returns the payloads
// concatenated. Any single-byte change to an accepted body's payload
// bytes is rejected. The seed corpus (testdata/fuzz/FuzzUnframeAll)
// holds a torn last frame, an unframed line, an uppercase hex frame,
// an empty body and a non-hex prefix.
func FuzzUnframeAll(f *testing.F) {
	f.Add(frameAll(replLines(0, 3)), byte(1))
	f.Fuzz(func(t *testing.T, body []byte, mask byte) {
		lines, err := unframeAll(body)
		if err != nil {
			return
		}
		var want []byte
		var payload []int // offsets in body of every payload byte
		for off, rest := 0, body; len(rest) > 0; {
			nl := bytes.IndexByte(rest, '\n')
			if nl < 9 || rest[8] != ' ' {
				t.Fatalf("accepted a malformed frame at byte %d: %q", off, rest)
			}
			sum, perr := strconv.ParseUint(string(rest[:8]), 16, 32)
			if perr != nil || uint32(sum) != crc32.Checksum(rest[9:nl+1], crc32.MakeTable(crc32.Castagnoli)) {
				t.Fatalf("accepted a frame whose prefix is not its payload's CRC-32C at byte %d: %q", off, rest[:nl+1])
			}
			want = append(want, rest[9:nl+1]...)
			for i := off + 9; i <= off+nl; i++ {
				payload = append(payload, i)
			}
			off += nl + 1
			rest = rest[nl+1:]
		}
		if !bytes.Equal(lines, want) {
			t.Fatalf("decoded %q, want the payloads %q", lines, want)
		}
		if mask == 0 {
			mask = 1
		}
		// Every payload byte up to 512 of them, evenly spaced beyond, so
		// a long body costs O(n), not O(n²).
		mutated := make([]byte, len(body))
		for k := 0; k < len(payload); k += 1 + len(payload)/512 {
			copy(mutated, body)
			mutated[payload[k]] ^= mask
			if got, err := unframeAll(mutated); err == nil {
				t.Fatalf("payload byte %d changed by ^%#02x was accepted: %q", payload[k], mask, got)
			}
		}
	})
}

// TestReplicaStatusEndpoints smoke-tests the read side: GET job state
// and GET self status carry the durable line count and the lease view.
func TestReplicaStatusEndpoints(t *testing.T) {
	leader, id, request, meta := replTestJob(t, 9)
	n := newReplicaNode(t)
	repl := newTestReplicator(t, leader, []string{n.url}, 1)
	if err := repl.JobCreated(meta, request); err != nil {
		t.Fatal(err)
	}
	run := meta
	run.State, run.Completed = jobs.Running, 9
	if err := repl.Checkpoint(id, run, 0, replLines(0, 9)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(n.url + "/v1/replica/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Meta  jobs.Meta `json:"meta"`
		Lines int       `json:"lines"`
	}
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if st.Lines != 9 || st.Meta.Completed != 9 {
		t.Fatalf("replica job status %+v lines %d, want 9 lines", st.Meta, st.Lines)
	}

	resp2, err := http.Get(n.url + "/v1/replica/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var self struct {
		Term   uint64 `json:"term"`
		Leader string `json:"leader"`
	}
	if err := jsonDecode(resp2, &self); err != nil {
		t.Fatal(err)
	}
	if self.Term != 1 || self.Leader != "http://leader.test" {
		t.Fatalf("replica self status term=%d leader=%q", self.Term, self.Leader)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
