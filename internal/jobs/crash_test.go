package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// This file is the crash-at-every-fsync-boundary torture suite: a
// checkpoint flush makes three files durable in a fixed order —
// results.ndjson, then results.sum, then meta.json (atomic rename) —
// and a kill can land between (or inside) any pair of those fsyncs.
// For EVERY checkpoint boundary of a reference job and every
// achievable crash state at that boundary, the test rebuilds the
// post-crash disk image byte-for-byte, recovers with a fresh Manager,
// and asserts the pinned outcome: the job resumes and finishes with a
// results file byte-identical to an uninterrupted run (repair /
// truncate), or — when a durably-summed byte was altered — the job is
// quarantined with ErrCorruptResults. Never silent corruption.

// crashState is one post-crash disk image at a checkpoint boundary c
// (c lines were durably flushed by the previous checkpoint; the crash
// interrupts the flush that would have made `next` lines durable).
type crashState struct {
	name string
	// build mutates the job dir (holding a completed reference run)
	// into the post-crash image. ref is the full reference results
	// bytes; c and next the surrounding boundaries.
	build func(t *testing.T, dir string, ref []byte, c, next int)
	// corrupt marks states that must quarantine instead of resume.
	corrupt bool
}

// refSums returns the sidecar bytes for the first n lines of ref.
func refSums(t *testing.T, ref []byte, n int) []byte {
	t.Helper()
	var out bytes.Buffer
	rest := ref
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			t.Fatalf("reference has fewer than %d lines", n)
		}
		fmt.Fprintf(&out, "%08x\n", crc32.Checksum(rest[:nl+1], crc32.MakeTable(crc32.Castagnoli)))
		rest = rest[nl+1:]
	}
	return out.Bytes()
}

// prefixLines returns the bytes of the first n lines of ref.
func prefixLines(t *testing.T, ref []byte, n int) []byte {
	t.Helper()
	rest, off := ref, 0
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			t.Fatalf("reference has fewer than %d lines", n)
		}
		off += nl + 1
		rest = rest[nl+1:]
	}
	return ref[:off]
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCrashAtEveryFsyncBoundary(t *testing.T) {
	const n, every = 12, 4

	// Reference run: an uninterrupted job over the same store layout.
	refDir := t.TempDir()
	refMgr, err := NewManager(Config{
		Dir: refDir, CheckpointEvery: every,
		Exec: stubExec(nil), Normalize: stubNormalize,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := []byte(fmt.Sprintf(`{"n": %d}`, n))
	meta, _, err := refMgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	id := meta.ID
	if meta, err = refMgr.Wait(waitCtx(t), id); err != nil || meta.State != Done {
		t.Fatalf("reference job: %+v, %v", meta, err)
	}
	refMgr.Close()
	ref, err := os.ReadFile(filepath.Join(refDir, id, "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	refMetaRunning := func(completed int) []byte {
		return []byte(fmt.Sprintf(`{"id":%q,"state":"running","total":%d,"completed":%d,"createdAt":1,"startedAt":2}`, id, n, completed))
	}
	request, err := os.ReadFile(filepath.Join(refDir, id, "request.json"))
	if err != nil {
		t.Fatal(err)
	}

	// The achievable crash states between each pair of fsyncs. The
	// flush order is results → sums → meta; without fsync barriers in
	// between, the media may hold any prefix of that sequence, plus
	// torn in-progress writes of the file being flushed.
	states := []crashState{
		{
			// Killed mid-results-write: the batch's last line is torn.
			// Sums still describe the previous boundary. Recovery must
			// truncate the torn tail and resume from the last complete
			// line.
			name: "torn-results-tail",
			build: func(t *testing.T, dir string, ref []byte, c, next int) {
				lines := prefixLines(t, ref, next)
				writeFile(t, filepath.Join(dir, "results.ndjson"), lines[:len(lines)-3])
				writeFile(t, filepath.Join(dir, "results.sum"), refSums(t, ref, c))
			},
		},
		{
			// Killed between the results fsync and the sums fsync: lines
			// are durable, the sidecar lags a whole batch. Recovery must
			// backfill the missing sidecar entries from the (verified
			// complete) lines.
			name: "results-ahead-of-sums",
			build: func(t *testing.T, dir string, ref []byte, c, next int) {
				writeFile(t, filepath.Join(dir, "results.ndjson"), prefixLines(t, ref, next))
				writeFile(t, filepath.Join(dir, "results.sum"), refSums(t, ref, c))
			},
		},
		{
			// Killed mid-sums-write: the sidecar's last record is torn.
			name: "torn-sums-tail",
			build: func(t *testing.T, dir string, ref []byte, c, next int) {
				writeFile(t, filepath.Join(dir, "results.ndjson"), prefixLines(t, ref, next))
				sums := refSums(t, ref, next)
				writeFile(t, filepath.Join(dir, "results.sum"), sums[:len(sums)-4])
			},
		},
		{
			// The page cache persisted the sidecar ahead of a torn
			// results tail (no barrier between the two writes): the
			// sidecar vouches for a line the results file lost. Recovery
			// must drop the unmatched sidecar entries with the tail.
			name: "sums-ahead-of-torn-results",
			build: func(t *testing.T, dir string, ref []byte, c, next int) {
				lines := prefixLines(t, ref, next)
				writeFile(t, filepath.Join(dir, "results.ndjson"), lines[:len(lines)-3])
				writeFile(t, filepath.Join(dir, "results.sum"), refSums(t, ref, next))
			},
		},
		{
			// Killed between the sums fsync and the meta rename: data
			// complete at `next`, meta still claims c. Recovery trusts
			// the file (resume offset comes from the verified line
			// count, not the stale meta).
			name: "meta-behind-data",
			build: func(t *testing.T, dir string, ref []byte, c, next int) {
				writeFile(t, filepath.Join(dir, "results.ndjson"), prefixLines(t, ref, next))
				writeFile(t, filepath.Join(dir, "results.sum"), refSums(t, ref, next))
			},
		},
		{
			// Killed mid-meta-rename: the atomic-write temp file
			// survives next to a stale meta. Recovery must ignore it.
			name: "meta-tmp-orphan",
			build: func(t *testing.T, dir string, ref []byte, c, next int) {
				writeFile(t, filepath.Join(dir, "results.ndjson"), prefixLines(t, ref, next))
				writeFile(t, filepath.Join(dir, "results.sum"), refSums(t, ref, next))
				writeFile(t, filepath.Join(dir, "meta.json-1234.tmp"), []byte(`{"half":`))
			},
		},
		{
			// A durably-summed byte later changed on the media (bit rot,
			// misdirected write). This is NOT recoverable by truncation:
			// the job must quarantine with ErrCorruptResults, never
			// resume over the poisoned prefix.
			name:    "durable-byte-flipped",
			corrupt: true,
			build: func(t *testing.T, dir string, ref []byte, c, next int) {
				lines := append([]byte(nil), prefixLines(t, ref, next)...)
				if next == 0 {
					t.Skip("no durable byte to flip at boundary 0")
				}
				lines[2] ^= 0x04
				writeFile(t, filepath.Join(dir, "results.ndjson"), lines)
				writeFile(t, filepath.Join(dir, "results.sum"), refSums(t, ref, next))
			},
		},
	}

	for c := 0; c <= n; c += every {
		next := c + every
		if next > n {
			next = n
		}
		if next == c {
			continue
		}
		for _, st := range states {
			t.Run(fmt.Sprintf("boundary-%d/%s", c, st.name), func(t *testing.T) {
				dir := t.TempDir()
				jobDir := filepath.Join(dir, id)
				if err := os.MkdirAll(jobDir, 0o755); err != nil {
					t.Fatal(err)
				}
				writeFile(t, filepath.Join(jobDir, "request.json"), request)
				writeFile(t, filepath.Join(jobDir, "meta.json"), refMetaRunning(c))
				st.build(t, jobDir, ref, c, next)

				m := newTestManager(t, dir, nil)
				meta, err := m.Wait(waitCtx(t), id)
				if err != nil {
					t.Fatalf("wait: %v", err)
				}
				if st.corrupt {
					if meta.State != Failed {
						t.Fatalf("corrupt state recovered to %s, want quarantine (failed)", meta.State)
					}
					if meta.Error == "" || !bytes.Contains([]byte(meta.Error), []byte("corrupt")) {
						t.Fatalf("quarantined job's error does not name the corruption: %q", meta.Error)
					}
					return
				}
				if meta.State != Done {
					t.Fatalf("recovered job state %s (error %q), want done", meta.State, meta.Error)
				}
				got, err := os.ReadFile(filepath.Join(dir, id, "results.ndjson"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("recovered results differ from the uninterrupted run:\ngot  %d bytes\nwant %d bytes", len(got), len(ref))
				}
			})
		}
	}
}

// FuzzStoreRecovery generalises TestCrashAtEveryFsyncBoundary from the
// states a crashed checkpoint can leave to any bytes: the three inputs
// become one 12-point job's meta.json, results.ndjson and results.sum,
// and a Manager opens the directory. It must never panic, and the job
// must land in one pinned state:
//
//   - skipped (ErrNotFound), when its meta is unreadable;
//   - its on-disk terminal state, untouched;
//   - Failed with ErrCorruptResults, when a well-formed sidecar record
//     disagrees with its line or there are more lines than points;
//   - otherwise Done: the complete lines it kept, byte for byte, then
//     the stub executor's lines, which is byte-identical to an
//     uninterrupted run whenever the kept lines are the stub's.
//
// Recovery trusts a line that no well-formed record contradicts (a
// crash between the results and sidecar fsyncs leaves such lines), so
// the last state cannot demand the stub's bytes for a forged prefix.
// The seed corpus (testdata/fuzz/FuzzStoreRecovery) holds the crash
// matrix's states at every boundary, a finished job, a fresh one, and
// faults in the meta and in the line count.
func FuzzStoreRecovery(f *testing.F) {
	const n = 12
	canonical, _, err := stubNormalize([]byte(fmt.Sprintf(`{"n": %d}`, n)))
	if err != nil {
		f.Fatal(err)
	}
	id := IDFor(canonical)
	f.Fuzz(func(t *testing.T, meta, results, sums []byte) {
		dir := t.TempDir()
		jobDir := filepath.Join(dir, id)
		if err := os.MkdirAll(jobDir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(jobDir, "request.json"), canonical)
		writeFile(t, filepath.Join(jobDir, "meta.json"), meta)
		writeFile(t, filepath.Join(jobDir, "results.ndjson"), results)
		writeFile(t, filepath.Join(jobDir, "results.sum"), sums)
		disk, diskErr := (&Store{dir: dir}).ReadMeta(id)

		m := newTestManager(t, dir, nil)
		got, err := m.Get(id)
		switch {
		case diskErr != nil:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("unreadable meta (%v) was loaded as %+v", diskErr, got)
			}
			return
		case disk.State.Terminal():
			if err != nil || got != disk {
				t.Fatalf("terminal job loaded as %+v (err %v), want %+v", got, err, disk)
			}
			return
		}
		final, err := m.Wait(waitCtx(t), id)
		if err != nil {
			t.Fatalf("wait: %v (job %+v)", err, final)
		}
		kept, lines, corrupt := verifiedPrefix(results, sums)
		if corrupt || lines > n {
			if final.State != Failed || !strings.Contains(final.Error, ErrCorruptResults.Error()) {
				t.Fatalf("corrupt store recovered as %+v, want failed with %v", final, ErrCorruptResults)
			}
			return
		}
		if final.State != Done {
			t.Fatalf("recovered job %+v, want done", final)
		}
		want := append(append([]byte(nil), kept...), wantLines(n)[len(wantLines(lines)):]...)
		data, err := os.ReadFile(filepath.Join(jobDir, "results.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("recovered results:\n%q\nwant:\n%q", data, want)
		}
	})
}

// verifiedPrefix is the recovery contract restated for the fuzzer: the
// complete lines of results survive; the sidecar's records are read up
// to the first malformed one; and a well-formed record that disagrees
// with its line makes the file corrupt.
func verifiedPrefix(results, sums []byte) (kept []byte, lines int, corrupt bool) {
	kept = results[:bytes.LastIndexByte(results, '\n')+1]
	for rest := kept; len(rest) > 0; lines++ {
		nl := bytes.IndexByte(rest, '\n')
		if rec := (lines + 1) * sumRecordLen; rec <= len(sums) && !corrupt {
			stored, err := strconv.ParseUint(string(sums[rec-sumRecordLen:rec-1]), 16, 32)
			if err != nil || sums[rec-1] != '\n' {
				sums = nil // torn from here on
			} else if uint32(stored) != crc32.Checksum(rest[:nl+1], crc32.MakeTable(crc32.Castagnoli)) {
				corrupt = true
			}
		}
		rest = rest[nl+1:]
	}
	return kept, lines, corrupt
}
