package api

import (
	"bytes"
	"crypto/sha256"
)

// planCacheSize bounds the plan cache. A fabric coordinator sends
// every worker the same canonical body once per ring range it owns, so
// the working set is the handful of sweeps in flight at once, not the
// request history.
const planCacheSize = 32

// planBody returns the plan of a /v1/sweep request body. Only a miss
// strictly decodes and plans it: a fabric worker receives one body per
// ring range of a sweep, and planning it anew for every range would
// cost more than the range's points when they are cached. Failed plans
// are not cached, and neither is a plan that replays a trace:
// RegisterTrace can re-bind the trace's name, and the plan holds the
// trace it resolved.
func (s *Service) planBody(body []byte) (*sweepPlan, error) {
	key := sha256.Sum256(body)
	if pl, ok := s.plans.get(key); ok {
		return pl, nil
	}
	var req SweepRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, err
	}
	pl, err := s.plan(&req)
	if err != nil {
		return nil, err
	}
	if pl.trace != nil {
		return pl, nil
	}
	return s.plans.add(key, pl), nil
}
