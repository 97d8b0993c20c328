package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// State is a job's lifecycle state. The machine is
//
//	pending -> running -> done
//	                   -> failed
//	pending/running -> cancelled
//
// plus the recovery edge running -> pending when a restarted Manager
// finds a job that was mid-execution when the process died.
type State string

const (
	Pending   State = "pending"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// known reports whether s is one of the five states.
func (s State) known() bool { return s == Pending || s == Running || s.Terminal() }

// Meta is a job's status record: the checkpointed progress marker
// persisted as meta.json and the JSON body of GET /v1/jobs/{id}. The
// results file, not Completed, is the source of truth at recovery —
// Completed is the advisory high-water mark of the last checkpoint.
type Meta struct {
	// ID is the content key: "job-" plus the truncated SHA-256 of the
	// canonical request bytes, so resubmitting an identical sweep
	// dedupes to the same job.
	ID    string `json:"id"`
	State State  `json:"state"`
	// Total is the job's grid size in points (known at submission).
	Total int `json:"total"`
	// Completed counts results known to be durably on disk.
	Completed int `json:"completed"`
	// Error carries the failure reason of a failed job.
	Error string `json:"error,omitempty"`
	// CreatedAt/StartedAt/FinishedAt are Unix milliseconds; zero means
	// "not yet".
	CreatedAt  int64 `json:"createdAt"`
	StartedAt  int64 `json:"startedAt,omitempty"`
	FinishedAt int64 `json:"finishedAt,omitempty"`
}

// ErrNotFound marks an unknown job id.
var ErrNotFound = errors.New("jobs: job not found")

// ErrLeaseHeld marks a job whose execution lease is held: by the
// manager's runner executing it, or by a replica apply writing it
// (Store.ApplyReplicated).
var ErrLeaseHeld = errors.New("jobs: job lease held")

// ErrStorage marks a server-side persistence failure (disk full,
// permissions, ...) as opposed to a bad request; the HTTP layer maps
// it to a 5xx so clients retry instead of discarding the submission.
var ErrStorage = errors.New("jobs: storage failure")

// storage wraps err so errors.Is(_, ErrStorage) holds.
func storage(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrStorage, err)
}

// IDFor derives the content-keyed job id from the canonical request
// bytes.
func IDFor(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return "job-" + hex.EncodeToString(sum[:8])
}

// Store persists jobs under one directory, one subdirectory per job:
//
//	<dir>/<id>/request.json   canonical request (immutable)
//	<dir>/<id>/meta.json      Meta checkpoint (atomic tmp+rename)
//	<dir>/<id>/results.ndjson one emitted line per completed point
//	<dir>/<id>/results.sum    per-record CRC-32C sidecar (derived)
//
// results.ndjson is append-only and fsynced at every checkpoint; a
// crash can leave at most a partial trailing line, which recovery
// truncates before counting the resume offset. The sidecar carries
// one fixed-width checksum per record so recovery also detects
// mid-file corruption, not just the torn tail (see OpenResults).
type Store struct {
	dir string
}

// NewStore opens (creating if needed) the job directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("jobs: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobDir(id string) string { return filepath.Join(s.dir, id) }

// Create persists a new job — its directory, canonical request and
// initial meta — durably: both files are synced before their renames
// land, and the directory entries themselves are fsynced, so a job
// acknowledged to the client survives power loss whole (never as a
// directory with a missing or torn request).
func (s *Store) Create(meta Meta, request []byte) error {
	dir := s.jobDir(meta.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return storage(err)
	}
	if err := atomicWrite(dir, "request.json", request); err != nil {
		return storage(err)
	}
	if err := s.WriteMeta(meta); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return storage(err)
	}
	return storage(syncDir(s.dir))
}

// WriteMeta checkpoints the job status atomically (write temp file,
// fsync, rename), so a crash never leaves a torn meta.json.
func (s *Store) WriteMeta(meta Meta) error {
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return storage(atomicWrite(s.jobDir(meta.ID), "meta.json", append(data, '\n')))
}

// atomicWrite lands data under dir/name via a synced temp file and a
// rename, so the target is always either absent or whole.
func atomicWrite(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+"-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// syncDir fsyncs a directory so renames and creations inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// ReadMeta loads a job's status record. A record that names another
// job or an unknown state is corrupt: loading it would key the job by
// a path outside its directory, or leave it in no state that ever
// runs or ends.
func (s *Store) ReadMeta(id string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "meta.json"))
	if errors.Is(err, os.ErrNotExist) {
		return Meta{}, ErrNotFound
	}
	if err != nil {
		return Meta{}, err
	}
	var meta Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		return Meta{}, fmt.Errorf("jobs: corrupt meta for %s: %w", id, err)
	}
	if meta.ID != id || !meta.State.known() {
		return Meta{}, fmt.Errorf("jobs: corrupt meta for %s: id %q, state %q", id, meta.ID, meta.State)
	}
	return meta, nil
}

// Request loads a job's canonical request bytes.
func (s *Store) Request(id string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "request.json"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	return data, err
}

// Load scans the store and returns every job's meta (unspecified
// order). Entries whose meta is unreadable are skipped: a job
// directory is only half-created for the instant between MkdirAll and
// the first WriteMeta, and a stray file cannot wedge the whole
// subsystem.
func (s *Store) Load() ([]Meta, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	metas := make([]Meta, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "job-") {
			continue
		}
		meta, err := s.ReadMeta(e.Name())
		if err != nil {
			continue
		}
		metas = append(metas, meta)
	}
	return metas, nil
}

// Remove deletes a job's directory.
func (s *Store) Remove(id string) error {
	return storage(os.RemoveAll(s.jobDir(id)))
}

// ResultsPath returns the path of a job's results file.
func (s *Store) ResultsPath(id string) string {
	return filepath.Join(s.jobDir(id), "results.ndjson")
}

// LeasePath returns the path of a job's execution-lease file, an
// advisory per-job flock. The manager's runner holds it while the job
// executes and a replica apply holds it while it writes, so the two
// never write one results file at once.
func (s *Store) LeasePath(id string) string {
	return filepath.Join(s.jobDir(id), ".lease")
}
