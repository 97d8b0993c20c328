package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/api"
)

// defaultMaxRuns is the service's per-point run cap (api.Options'
// default), which the adaptive requests leave as their maxRuns.
const defaultMaxRuns = 256

// checkItems checks what one operation's result bytes must satisfy on
// their own: one line per grid point, and for adaptive requests a
// runsUsed on every point with either the CI target met or the budget
// spent.
func checkItems(w workload, seed uint64, i, lines int, body []byte) error {
	req := w.request(seed, i)
	if want := gridSize(req); lines != want {
		return fmt.Errorf("%d result lines, grid has %d points", lines, want)
	}
	if req.TargetRelErr == 0 {
		return nil
	}
	for k, line := range bytes.SplitAfter(body, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var it struct {
			RunsUsed int     `json:"runsUsed"`
			CI95     float64 `json:"ci95"`
			SimWaste float64 `json:"simWaste"`
		}
		if err := json.Unmarshal(line, &it); err != nil {
			return fmt.Errorf("point %d: %w", k, err)
		}
		if it.RunsUsed <= 0 {
			return fmt.Errorf("point %d carries no runsUsed", k)
		}
		if it.CI95 > req.TargetRelErr*math.Abs(it.SimWaste) && it.RunsUsed != defaultMaxRuns {
			return fmt.Errorf("point %d stopped at %d runs with ci95 %g above target %g·|%g|",
				k, it.RunsUsed, it.CI95, req.TargetRelErr, it.SimWaste)
		}
	}
	return nil
}

// referenceHash is the SHA-256 of the single-node stream of req: the
// bytes a streaming /v1/sweep and a job's results file both carry.
func referenceHash(svc *api.Service, req api.SweepRequest) ([sha256.Size]byte, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_, err := svc.SweepStream(context.Background(), req, func(item api.SweepItem) error {
		return enc.Encode(item)
	})
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, err
}

// verify compares the sampled operations against single-node references
// computed now, after the timed phase, on a fresh service. It marks each
// operation that fails and returns how many did.
func verify(w workload, seed uint64, ops []opRecord) (int, []string, error) {
	svc := api.NewService(api.Options{})
	failed := 0
	var msgs []string
	for k := range ops {
		op := &ops[k]
		if op.err == nil && op.index%w.refEvery == 0 {
			ref, err := referenceHash(svc, w.request(seed, op.index))
			if err != nil {
				return 0, nil, fmt.Errorf("reference for operation %d: %w", op.index, err)
			}
			switch {
			case op.hash != ref:
				op.err = errors.New("result bytes differ from the single-node reference")
			case w.topology == topoHA && !containsHash(op.replicas, ref):
				op.err = fmt.Errorf("no standby store holds the reference results (%d read)", len(op.replicas))
			}
		}
		if op.err != nil {
			failed++
			if len(msgs) < 5 {
				msgs = append(msgs, fmt.Sprintf("operation %d: %v", op.index, op.err))
			}
		}
	}
	return failed, msgs, nil
}

func containsHash(hs [][sha256.Size]byte, h [sha256.Size]byte) bool {
	for _, x := range hs {
		if x == h {
			return true
		}
	}
	return false
}

// digests returns the SHA-256 over every operation's result hash, in
// order, and the same over the first min(prefixOps, len(ops))
// operations with that count. Runs of one seed are comparable on their
// prefix digest whatever their length.
func digests(ops []opRecord) (all, prefix string, prefixN int) {
	h := sha256.New()
	for k, op := range ops {
		if k == prefixOps {
			prefix, prefixN = hex.EncodeToString(h.Sum(nil)), k
		}
		h.Write(op.hash[:])
	}
	all = hex.EncodeToString(h.Sum(nil))
	if len(ops) <= prefixOps {
		prefix, prefixN = all, len(ops)
	}
	return all, prefix, prefixN
}

// prefixOps is the operation count the prefix digest and the ring
// record cover.
const prefixOps = 8

// ringShape is the fleet partition of one request's grid.
type ringShape struct {
	Ranges   int     `json:"ranges"`
	MaxShare float64 `json:"maxShare"`
}

// checkRingRecord compares this run's ring partition with the one an
// earlier run of the same seed recorded under stateDir, and records it
// when there is none. Node names are fixed, so the two must be equal; a
// difference means the workers' identities changed between runs.
func checkRingRecord(stateDir string, w workload, seed uint64, shapes []ringShape) error {
	path := filepath.Join(stateDir, fmt.Sprintf("%s-ring-%d.json", w.name, seed))
	data, err := os.ReadFile(path)
	if err == nil {
		var prev []ringShape
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("ring record %s: %w", path, err)
		}
		for i := range prev {
			if i < len(shapes) && prev[i] != shapes[i] {
				return fmt.Errorf("request %d partitions into %+v, an earlier run of seed %d recorded %+v",
					i, shapes[i], seed, prev[i])
			}
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err = json.Marshal(shapes)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
