package api

import "repro/internal/engine"

// compiledBatch returns the compiled evaluation batch for key from the
// service's batch cache, compiling req with eng on a miss. The cache is
// keyed by the physical configuration — the point key minus the runs
// and seed fields, plus the backend — so grid rows that collapse to the
// same physical point (DoubleBlocking's pinned φ), and repeated sweeps
// over the same grid with different seeds or batch sizes, reuse one
// compilation (protocol phases, optimal period, multilevel plan,
// detailed substrate shapes). Compilation runs outside the cache's
// lock; a concurrent double-compile of one key is benign (batches are
// immutable) and the first stored batch wins.
func (s *Service) compiledBatch(key string, eng engine.Engine, req engine.Request) (engine.Batch, error) {
	if b, ok := s.batches.get(key); ok {
		return b, nil
	}
	b, err := eng.Compile(req)
	if err != nil {
		return nil, err
	}
	return s.batches.add(key, b), nil
}
