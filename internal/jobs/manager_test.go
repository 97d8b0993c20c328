package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// stubReq is the test executor's request language: emit N deterministic
// lines, optionally failing or blocking at a given point.
type stubReq struct {
	N      int `json:"n"`
	FailAt int `json:"failAt,omitempty"` // fail before emitting this index (-1 = never)
	WaitAt int `json:"waitAt,omitempty"` // block at this index until gate or ctx (-1 = never)
}

// stubLine is the deterministic record for point i: identical whatever
// offset the executor starts at, like the sweep engine's items.
func stubLine(i int) []byte {
	return []byte(fmt.Sprintf("{\"i\":%d}\n", i))
}

// stubExec returns a deterministic Executor over stubReq. gate, if
// non-nil, unblocks a WaitAt point.
func stubExec(gate chan struct{}) Executor {
	return func(ctx context.Context, request []byte, offset int, start func(int) error, emit func([]byte) error) error {
		var req stubReq
		if err := json.Unmarshal(request, &req); err != nil {
			return err
		}
		if err := start(req.N); err != nil {
			return err
		}
		for i := offset; i < req.N; i++ {
			if req.FailAt != 0 && i == req.FailAt {
				return fmt.Errorf("stub: induced failure at point %d", i)
			}
			if req.WaitAt != 0 && i == req.WaitAt {
				select {
				case <-gate:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			if err := emit(stubLine(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

func stubNormalize(request []byte) ([]byte, int, error) {
	var req stubReq
	if err := json.Unmarshal(request, &req); err != nil {
		return nil, 0, err
	}
	canonical, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	return canonical, req.N, nil
}

func newTestManager(t *testing.T, dir string, gate chan struct{}) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Dir:             dir,
		MaxConcurrent:   2,
		CheckpointEvery: 4,
		Exec:            stubExec(gate),
		Normalize:       stubNormalize,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// wantLines is the full expected results file for an n-point job.
func wantLines(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.Write(stubLine(i))
	}
	return b.Bytes()
}

func TestJobRunsToCompletion(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)
	meta, created, err := m.Submit([]byte(`{"n": 10}`))
	if err != nil || !created {
		t.Fatalf("submit: %v (created %v)", err, created)
	}
	if meta.State != Pending || meta.Total != 10 {
		t.Fatalf("submitted meta %+v", meta)
	}
	final, err := m.Wait(waitCtx(t), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done || final.Completed != 10 {
		t.Fatalf("final meta %+v", final)
	}
	data, err := os.ReadFile(m.store.ResultsPath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, wantLines(10)) {
		t.Errorf("results file:\n%s\nwant:\n%s", data, wantLines(10))
	}
}

// TestJobDedupe pins the content key: resubmitting an identical
// request — even with different whitespace — returns the same job,
// while a different request gets its own.
func TestJobDedupe(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)
	a, created, err := m.Submit([]byte(`{"n": 6}`))
	if err != nil || !created {
		t.Fatalf("first submit: %v (created %v)", err, created)
	}
	b, created, err := m.Submit([]byte(`{ "n":6 }`))
	if err != nil {
		t.Fatal(err)
	}
	if created || b.ID != a.ID {
		t.Errorf("identical request created a new job: %+v vs %+v", b, a)
	}
	c, created, err := m.Submit([]byte(`{"n": 7}`))
	if err != nil || !created {
		t.Fatalf("distinct submit: %v (created %v)", err, created)
	}
	if c.ID == a.ID {
		t.Error("distinct requests share a job id")
	}
	// Dedupe holds across restarts and terminal states too.
	if _, err := m.Wait(waitCtx(t), a.ID); err != nil {
		t.Fatal(err)
	}
	again, created, err := m.Submit([]byte(`{"n": 6}`))
	if err != nil {
		t.Fatal(err)
	}
	if created || again.State != Done {
		t.Errorf("resubmitting a done job should return it: %+v", again)
	}
}

func TestJobCancelWhileRunning(t *testing.T) {
	gate := make(chan struct{})
	m := newTestManager(t, t.TempDir(), gate)
	meta, _, err := m.Submit([]byte(`{"n": 10, "waitAt": 6}`))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job has checkpointed some progress (blocked at 6,
	// checkpoint every 4 → completed 4 is durable).
	ctx := waitCtx(t)
	for {
		got, err := m.Get(meta.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Completed >= 4 {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("job never progressed: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(meta.ID); err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(ctx, meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Cancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	// The partial prefix is durable and well-formed.
	data, err := os.ReadFile(m.store.ResultsPath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, wantLines(6)) {
		t.Errorf("cancelled job results:\n%s\nwant the 6-line prefix", data)
	}
}

func TestJobCancelPending(t *testing.T) {
	gate := make(chan struct{})
	m := newTestManager(t, t.TempDir(), gate)
	// Two blocking jobs saturate MaxConcurrent=2; the third stays
	// pending.
	for i := 0; i < 2; i++ {
		if _, _, err := m.Submit([]byte(fmt.Sprintf(`{"n": %d, "waitAt": 1}`, 4+i))); err != nil {
			t.Fatal(err)
		}
	}
	meta, _, err := m.Submit([]byte(`{"n": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != Cancelled {
		t.Fatalf("pending cancel state %s, want cancelled immediately", got.State)
	}
	close(gate)
}

// TestJobCancelRacingCompletionStaysDone: a cancel that lands while
// the executor is emitting its final point must not turn a
// byte-complete job into a "cancelled" one — the results file holds
// every point, so the terminal state is Done.
func TestJobCancelRacingCompletionStaysDone(t *testing.T) {
	almostDone := make(chan struct{})
	release := make(chan struct{})
	exec := func(ctx context.Context, request []byte, offset int, start func(int) error, emit func([]byte) error) error {
		if err := start(3); err != nil {
			return err
		}
		for i := offset; i < 3; i++ {
			if i == 2 {
				close(almostDone)
				<-release // let the cancel land mid-final-point
			}
			if err := emit(stubLine(i)); err != nil {
				return err
			}
		}
		return nil // completes despite the cancelled context
	}
	m, err := NewManager(Config{Dir: t.TempDir(), MaxConcurrent: 1, CheckpointEvery: 2, Exec: exec, Normalize: stubNormalize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	meta, _, err := m.Submit([]byte(`{"n": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	<-almostDone
	if _, err := m.Cancel(meta.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	final, err := m.Wait(waitCtx(t), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done || final.Completed != 3 {
		t.Errorf("complete job finished as %+v, want done with 3 points", final)
	}
	data, err := os.ReadFile(m.store.ResultsPath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, wantLines(3)) {
		t.Errorf("results:\n%q\nwant all 3 lines", data)
	}
}

func TestJobFailureRecordsError(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)
	meta, _, err := m.Submit([]byte(`{"n": 10, "failAt": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(waitCtx(t), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Failed || !strings.Contains(final.Error, "induced failure") {
		t.Fatalf("final meta %+v", final)
	}
	if final.Completed != 7 {
		t.Errorf("completed %d, want the durable 7-point prefix", final.Completed)
	}
}

// TestJobResumeAfterKillMidChunk is the durability acceptance test:
// a job killed mid-chunk — durable prefix plus a torn half-line tail,
// meta still saying "running" — is recovered by the next manager and
// its final results file is byte-identical to an uninterrupted run.
func TestJobResumeAfterKillMidChunk(t *testing.T) {
	// Uninterrupted reference run.
	refDir := t.TempDir()
	ref := newTestManager(t, refDir, nil)
	refMeta, _, err := ref.Submit([]byte(`{"n": 11}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Wait(waitCtx(t), refMeta.ID); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.store.ResultsPath(refMeta.ID))
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate the killed state: same request, 5 durable lines, a torn
	// tail from line 6, meta frozen mid-execution.
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	canonical, _, err := stubNormalize([]byte(`{"n": 11}`))
	if err != nil {
		t.Fatal(err)
	}
	id := IDFor(canonical)
	if id != refMeta.ID {
		t.Fatalf("content key differs across stores: %s vs %s", id, refMeta.ID)
	}
	killed := Meta{ID: id, State: Running, Total: 11, Completed: 4, CreatedAt: 1}
	if err := store.Create(killed, canonical); err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, wantLines(5)...), []byte(`{"i":5`)...)
	if err := os.WriteFile(store.ResultsPath(id), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, dir, nil)
	final, err := m.Wait(waitCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done || final.Completed != 11 {
		t.Fatalf("resumed meta %+v", final)
	}
	got, err := os.ReadFile(store.ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed results differ from uninterrupted run:\n%q\nwant:\n%q", got, want)
	}
}

// TestStoreRecoveryTruncatesTornTail pins OpenResults: the resume
// offset counts only complete lines and the torn tail is gone.
func TestStoreRecoveryTruncatesTornTail(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "job-feedbeef", State: Running}
	if err := store.Create(meta, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, wantLines(3)...), []byte("{\"i\":3,\"x")...)
	if err := os.WriteFile(store.ResultsPath(meta.ID), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	f, lines, err := store.OpenResults(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if lines != 3 {
		t.Errorf("recovered offset %d, want 3", lines)
	}
	data, err := os.ReadFile(store.ResultsPath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, wantLines(3)) {
		t.Errorf("torn tail survived recovery: %q", data)
	}
	// Appends continue where the complete prefix ends.
	if err := f.Append(stubLine(3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(store.ResultsPath(meta.ID))
	if !bytes.Equal(data, wantLines(4)) {
		t.Errorf("append after recovery: %q", data)
	}
}

// TestManagerRecoveryRequeuesRunning: a meta left "running" by a dead
// process is requeued pending on load, and pending jobs stay queued.
func TestManagerRecoveryRequeuesRunning(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, state := range []State{Running, Pending, Done} {
		canonical, _, err := stubNormalize([]byte(fmt.Sprintf(`{"n": %d}`, 3+i)))
		if err != nil {
			t.Fatal(err)
		}
		meta := Meta{ID: IDFor(canonical), State: state, Total: 3 + i, CreatedAt: int64(i)}
		if state == Done {
			meta.Completed = meta.Total
		}
		if err := store.Create(meta, canonical); err != nil {
			t.Fatal(err)
		}
		if state == Done {
			if err := os.WriteFile(store.ResultsPath(meta.ID), wantLines(meta.Total), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := newTestManager(t, dir, nil)
	for _, meta := range m.List() {
		final := meta
		if !meta.State.Terminal() {
			if final, err = m.Wait(waitCtx(t), meta.ID); err != nil {
				t.Fatal(err)
			}
		}
		if final.State != Done || final.Completed != final.Total {
			t.Errorf("job %s finished as %+v", meta.ID, final)
		}
	}
	if got := len(m.List()); got != 3 {
		t.Errorf("recovered %d jobs, want 3", got)
	}
}

// TestStreamResultsFollowsAndResumes: a follower sees checkpointed
// lines while the job runs and the stream ends at the terminal state;
// a second read with an offset returns exactly the suffix.
func TestStreamResultsFollowsAndResumes(t *testing.T) {
	gate := make(chan struct{})
	m := newTestManager(t, t.TempDir(), gate)
	meta, _, err := m.Submit([]byte(`{"n": 10, "waitAt": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	type streamed struct {
		data []byte
		meta Meta
		err  error
	}
	got := make(chan streamed, 1)
	go func() {
		var buf bytes.Buffer
		final, err := m.StreamResults(waitCtx(t), meta.ID, 0, func(line []byte) error {
			buf.Write(line)
			if buf.Len() == len(wantLines(8)) {
				close(gate) // unblock the tail once the prefix arrived
			}
			return nil
		})
		got <- streamed{buf.Bytes(), final, err}
	}()
	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.meta.State != Done {
		t.Fatalf("stream ended in state %s", res.meta.State)
	}
	if !bytes.Equal(res.data, wantLines(10)) {
		t.Errorf("followed stream:\n%q\nwant all 10 lines", res.data)
	}

	var tail bytes.Buffer
	if _, err := m.StreamResults(waitCtx(t), meta.ID, 7, func(line []byte) error {
		tail.Write(line)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, stubLine(7)...), append(stubLine(8), stubLine(9)...)...)
	if !bytes.Equal(tail.Bytes(), want) {
		t.Errorf("offset stream:\n%q\nwant:\n%q", tail.Bytes(), want)
	}
}

func TestJobDelete(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)
	meta, _, err := m.Submit([]byte(`{"n": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(waitCtx(t), meta.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(meta.ID); err != ErrNotFound {
		t.Errorf("deleted job still known: %v", err)
	}
	if _, err := os.Stat(filepath.Join(m.store.Dir(), meta.ID)); !os.IsNotExist(err) {
		t.Errorf("deleted job directory still on disk: %v", err)
	}
	// And the id is submittable again.
	again, created, err := m.Submit([]byte(`{"n": 5}`))
	if err != nil || !created || again.ID != meta.ID {
		t.Errorf("resubmission after delete: %+v created=%v err=%v", again, created, err)
	}
}

// waitState polls until the job reaches the wanted state on the given
// manager.
func waitState(t *testing.T, m *Manager, id string, want State) Meta {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		meta, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if meta.State == want {
			return meta
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, meta.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestManagerDirInUse: a directory has one live manager. A second
// NewManager over it fails, naming the directory, and leaves the first
// manager's job untouched on disk and in memory; once the first is
// closed, a fresh manager opens and resumes the job byte-identically.
// Close is idempotent and never releases a successor's lock.
func TestManagerDirInUse(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	m1 := newTestManager(t, dir, gate)
	meta, _, err := m1.Submit([]byte(`{"n": 8, "waitAt": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	running := waitState(t, m1, meta.ID, Running)

	cfg := Config{Dir: dir, Exec: stubExec(gate), Normalize: stubNormalize}
	if m2, err := NewManager(cfg); err == nil {
		m2.Close()
		t.Fatal("a second manager opened a directory that is in use")
	} else if !strings.Contains(err.Error(), dir) {
		t.Errorf("error %q does not name the directory %s", err, dir)
	}
	if got, err := m1.Get(meta.ID); err != nil || got != running {
		t.Errorf("first manager's job is %+v (err %v), want %+v", got, err, running)
	}
	if disk, err := m1.store.ReadMeta(meta.ID); err != nil || disk.State != Running {
		t.Errorf("job on disk is %+v (err %v), want running", disk, err)
	}

	m1.Close()
	m1.Close()
	close(gate)
	m3, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("reopening after Close: %v", err)
	}
	t.Cleanup(m3.Close)
	m1.Close() // a stale handle's Close must not unlock m3's directory
	if m4, err := NewManager(cfg); err == nil {
		m4.Close()
		t.Fatal("a closed manager's second Close released its successor's lock")
	}
	final, err := m3.Wait(waitCtx(t), meta.ID)
	if err != nil || final.State != Done || final.Completed != 8 {
		t.Fatalf("resumed job %+v, err %v", final, err)
	}
	data, err := os.ReadFile(m3.store.ResultsPath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, wantLines(8)) {
		t.Errorf("resumed results:\n%s\nwant:\n%s", data, wantLines(8))
	}
}

// TestRemoveWaitsForLease: Remove refuses with
// ErrLeaseHeld and removes nothing while the job's lease is held, removes
// the job once it is free, and treats a missing job as removed.
func TestRemoveWaitsForLease(t *testing.T) {
	store := newTestStore(t)
	request := []byte(`{"n": 3}`)
	meta := Meta{ID: IDFor(request), State: Done, Total: 3, CreatedAt: 1}
	if err := store.Create(meta, request); err != nil {
		t.Fatal(err)
	}
	release, err := acquireLease(store.LeasePath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Remove(meta.ID); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("Remove under a held lease: %v, want ErrLeaseHeld", err)
	}
	if _, err := store.ReadMeta(meta.ID); err != nil {
		t.Fatalf("job after a refused removal: %v", err)
	}
	release()
	if err := store.Remove(meta.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadMeta(meta.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job after removal: %v, want ErrNotFound", err)
	}
	if err := store.Remove(meta.ID); err != nil {
		t.Fatalf("Remove of a missing job: %v, want nil", err)
	}
}

// TestDeleteKeepsJobWhileLeaseHeld: a Delete refused because an
// old-term replica apply holds the job's lease leaves the job listed and
// on disk; once the lease is free the same Delete removes it.
func TestDeleteKeepsJobWhileLeaseHeld(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)
	meta, _, err := m.Submit([]byte(`{"n": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(waitCtx(t), meta.ID); err != nil {
		t.Fatal(err)
	}
	release, err := acquireLease(m.store.LeasePath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete(meta.ID); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("Delete under a held lease: %v, want ErrLeaseHeld", err)
	}
	if _, err := m.Get(meta.ID); err != nil {
		t.Fatalf("job after a refused delete: %v", err)
	}
	if _, err := m.store.ReadMeta(meta.ID); err != nil {
		t.Fatalf("job directory after a refused delete: %v", err)
	}
	release()
	if _, err := m.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(meta.ID); err != ErrNotFound {
		t.Errorf("deleted job still known: %v", err)
	}
}

// TestRunJobWaitsForReplicaApply: a newly promoted leader can find an
// old-term replica apply still holding a job's lease. The recovered job
// must not append until the apply releases the lease, then finishes
// byte-identically; a Close while it waits returns promptly and leaves
// the job resumable.
func TestRunJobWaitsForReplicaApply(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	m1 := newTestManager(t, dir, gate)
	meta, _, err := m1.Submit([]byte(`{"n": 10, "waitAt": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	id := meta.ID
	waitState(t, m1, id, Running)
	m1.Close() // flushes the 5 lines before the gate, leaves "running"
	store := m1.store
	prefix := wantLines(5)
	if data, err := os.ReadFile(store.ResultsPath(id)); err != nil || !bytes.Equal(data, prefix) {
		t.Fatalf("interrupted results %q (err %v), want %q", data, err, prefix)
	}

	// Hold the lease the way Store.ApplyReplicated does.
	release, err := acquireLease(store.LeasePath(id))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if release != nil {
			release()
		}
	}()
	started := make(chan struct{}, 1)
	open := make(chan struct{})
	close(open)
	exec := stubExec(open)
	newManager := func() *Manager {
		m, err := NewManager(Config{
			Dir: dir, CheckpointEvery: 4, Normalize: stubNormalize,
			Exec: func(ctx context.Context, req []byte, offset int, start func(int) error, emit func([]byte) error) error {
				select {
				case started <- struct{}{}:
				default:
				}
				return exec(ctx, req, offset, start, emit)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	unchanged := func(m *Manager) {
		t.Helper()
		select {
		case <-started:
			t.Fatal("the job executed while a replica apply held its lease")
		case <-time.After(100 * time.Millisecond):
		}
		if got, err := m.Get(id); err != nil || got.State != Pending {
			t.Fatalf("job is %+v (err %v), want pending while it waits", got, err)
		}
		if data, err := os.ReadFile(store.ResultsPath(id)); err != nil || !bytes.Equal(data, prefix) {
			t.Fatalf("results changed under the held lease: %q (err %v)", data, err)
		}
	}

	m2 := newManager()
	unchanged(m2)
	closed := make(chan struct{})
	go func() { m2.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while runJob waited for the lease")
	}
	if disk, err := store.ReadMeta(id); err != nil || disk.State != Pending {
		t.Fatalf("job on disk after Close is %+v (err %v), want pending", disk, err)
	}

	m3 := newManager()
	t.Cleanup(m3.Close)
	unchanged(m3)
	release()
	release = nil
	final, err := m3.Wait(waitCtx(t), id)
	if err != nil || final.State != Done || final.Completed != 10 {
		t.Fatalf("job after the apply released its lease: %+v, err %v", final, err)
	}
	if data, err := os.ReadFile(store.ResultsPath(id)); err != nil || !bytes.Equal(data, wantLines(10)) {
		t.Errorf("results %q (err %v), want %q", data, err, wantLines(10))
	}
}
