//go:build unix

package fabric

import (
	"bytes"
	"errors"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"

	"repro/internal/jobs"
)

// holdLease takes path's flock the way a job's runner or a replica
// apply holds the job lease; the returned func releases it.
func holdLease(t *testing.T, path string) func() {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		t.Fatal(err)
	}
	return func() { f.Close() }
}

// replicaDelete sends one DELETE /v1/replica/jobs/{id} at the test
// replicator's term.
func replicaDelete(t *testing.T, url, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/replica/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderReplicaTerm, "1")
	req.Header.Set(HeaderReplicaLeader, "http://leader.test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestReplicaDeleteHonoursLease: a replica DELETE that arrives while
// the job's lease is held — a runner or a replica apply has the
// results file open — answers 503 with Retry-After and removes
// nothing. The leader's quorum retries that 503 and, with the lease
// held throughout, counts the peer as not acked: JobRemoved fails with
// ErrNoQuorum, so Manager.Delete keeps its local copy and the job stays
// whole everywhere. Once the lease is free the removal lands, and a
// DELETE of a job the replica does not have is a 204 no-op.
func TestReplicaDeleteHonoursLease(t *testing.T) {
	leader, id, request, meta := replTestJob(t, 4)
	n := newReplicaNode(t)
	repl := newTestReplicator(t, leader, []string{n.url}, 1)
	if err := repl.JobCreated(meta, request); err != nil {
		t.Fatal(err)
	}
	run := meta
	run.State, run.Completed = jobs.Running, 4
	if err := repl.Checkpoint(id, run, 0, replLines(0, 4)); err != nil {
		t.Fatal(err)
	}

	release := holdLease(t, n.store.LeasePath(id))
	resp := replicaDelete(t, n.url, id)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("DELETE under a held lease: %s, Retry-After %q; want 503, 1",
			resp.Status, resp.Header.Get("Retry-After"))
	}
	err := repl.JobRemoved(id)
	if !errors.Is(err, ErrNoQuorum) || !strings.Contains(err.Error(), "503") {
		t.Fatalf("JobRemoved under a held lease: %v; want ErrNoQuorum naming the 503", err)
	}
	if got := readResults(t, n.store, id); !bytes.Equal(got, replLines(0, 4)) {
		t.Fatalf("results after refused deletes: %q, want %q", got, replLines(0, 4))
	}
	if _, err := n.store.ReadMeta(id); err != nil {
		t.Fatalf("meta after refused deletes: %v", err)
	}

	release()
	if err := repl.JobRemoved(id); err != nil {
		t.Fatalf("JobRemoved with the lease free: %v", err)
	}
	if _, err := n.store.ReadMeta(id); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("job still on the replica after remove: %v", err)
	}
	if resp := replicaDelete(t, n.url, id); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE of a missing job: %s, want 204", resp.Status)
	}
}
