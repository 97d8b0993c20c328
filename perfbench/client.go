package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/jobs"
)

// opTimeout bounds one operation; an operation that exceeds it fails.
const opTimeout = 60 * time.Second

// opRecord is what the client keeps of one operation. Times are
// nanoseconds since the run's clock base.
type opRecord struct {
	index int
	start int64 // request sent
	ack   int64 // jobs: submission acknowledged
	first int64 // first result line received
	last  int64 // last result line received
	end   int64 // operation complete (for jobs, after the delete)
	lines int
	bytes int64
	hash  [sha256.Size]byte
	// replicas holds the hashes of the job's results file in each
	// standby's store, read before the delete.
	replicas [][sha256.Size]byte
	err      error
}

// client is the single closed-loop client: one goroutine, one
// connection, the next request only after the previous one completed.
type client struct {
	http  *http.Client
	entry string
	clock time.Time
	body  []byte // the current operation's result bytes
	br    *bufio.Reader
	// mutate, when set, may alter an operation's result bytes before
	// they are hashed and checked.
	mutate func(op int, body []byte)
}

func newClient(t *topology, clock time.Time) *client {
	tr := t.res.transport(nil)
	tr.MaxConnsPerHost = 1
	tr.MaxIdleConnsPerHost = 1
	tr.DisableCompression = true
	return &client{
		http:  &http.Client{Transport: tr},
		entry: t.entry.url(),
		clock: clock,
		br:    bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) now() int64 { return int64(time.Since(c.clock)) }

func (c *client) close() { c.http.CloseIdleConnections() }

// errorRecord starts the {"error": ...} record that ends a failed stream.
var errorRecord = []byte(`{"error"`)

// readLines reads an NDJSON body to EOF into c.body, stamping the first
// and last line. A terminal error record fails the operation.
func (c *client) readLines(rec *opRecord, r io.Reader) error {
	c.br.Reset(r)
	defer c.br.Reset(nil)
	for {
		line, err := c.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return errors.New("result line longer than 64 KiB")
		}
		if len(line) > 0 {
			if err == io.EOF {
				return fmt.Errorf("unterminated result line (%d bytes)", len(line))
			}
			if bytes.HasPrefix(line, errorRecord) {
				return fmt.Errorf("error record: %s", bytes.TrimSpace(line))
			}
			now := c.now()
			if rec.lines == 0 {
				rec.first = now
			}
			rec.last = now
			rec.lines++
			c.body = append(c.body, line...)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// sweep runs one streaming POST /v1/sweep.
func (c *client) sweep(ctx context.Context, rec *opRecord, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.entry+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", api.NDJSONContentType)
	rec.start = c.now()
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return c.readLines(rec, resp.Body)
}

// job runs one durable job: submit it, follow its results until it is
// terminal, hash each standby's replicated results file, and delete it.
func (c *client) job(ctx context.Context, rec *opRecord, body []byte, standbys []*jobs.Store) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.entry+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	rec.start = c.now()
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	var meta jobs.Meta
	if resp.StatusCode != http.StatusAccepted {
		err = statusError(resp)
	} else {
		err = json.NewDecoder(resp.Body).Decode(&meta)
		io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	rec.ack = c.now()

	if err := c.get(ctx, c.entry+"/v1/jobs/"+meta.ID+"/results", func(r io.Reader) error {
		return c.readLines(rec, r)
	}); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	for _, st := range standbys {
		data, err := os.ReadFile(st.ResultsPath(meta.ID))
		if err != nil {
			continue // this replica lags; the check needs only one
		}
		rec.replicas = append(rec.replicas, sha256.Sum256(data))
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodDelete, c.entry+"/v1/jobs/"+meta.ID, nil)
	if err != nil {
		return err
	}
	resp, err = c.http.Do(req)
	if err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("delete: %w", statusError(resp))
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// get issues a GET and hands a 200 body to read.
func (c *client) get(ctx context.Context, url string, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	if err := read(resp.Body); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// getJSON decodes a GET's JSON body into v, whatever its status.
func (c *client) getJSON(url string, v any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func statusError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
}

// do runs operation i of workload w and returns its record. Operation
// failures are recorded, not returned.
func (c *client) do(w workload, t *topology, seed uint64, i int) opRecord {
	rec := opRecord{index: i}
	body, err := json.Marshal(w.request(seed, i))
	if err != nil {
		rec.err = err
		return rec
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	c.body = c.body[:0]
	if w.jobs {
		err = c.job(ctx, &rec, body, t.standbyStores())
	} else {
		err = c.sweep(ctx, &rec, body)
	}
	rec.end = c.now()
	if err != nil {
		rec.err = err
		return rec
	}
	if c.mutate != nil {
		c.mutate(i, c.body)
	}
	rec.bytes = int64(len(c.body))
	rec.hash = sha256.Sum256(c.body)
	rec.err = checkItems(w, seed, i, rec.lines, c.body)
	return rec
}

// waitReady polls the entry node's /readyz until the topology accepts
// work: a ready, undegraded node, and for HA a leader holding a write
// quorum.
func (c *client) waitReady(t *topology, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		var st struct {
			Ready    bool `json:"ready"`
			Degraded bool `json:"degraded"`
			HA       *struct {
				Role     string `json:"role"`
				QuorumOK bool   `json:"quorumOk"`
			} `json:"ha"`
		}
		last = c.getJSON(c.entry+"/readyz", &st)
		if last == nil {
			ok := st.Ready && !st.Degraded
			if t.kind == topoHA {
				ok = ok && st.HA != nil && st.HA.Role == "leader" && st.HA.QuorumOK
			}
			if ok {
				return nil
			}
			last = fmt.Errorf("not ready: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("topology not ready after %s: %v", timeout, last)
}
