package fabric

import (
	"net/http"

	"repro/internal/api"
)

// Handler mounts the coordinator's distributed /v1/sweep over an inner
// handler (normally api.NewServer of the local service): sweeps fan out
// across the fleet behind the same api.SweepHandler a single node
// serves, so the request language, the ?offset=&limit= range, the
// response shapes and — by the merge invariants — the response bytes
// are a single node's. Every other route — point endpoints, /healthz,
// the /v1/jobs lifecycle — falls through to the inner handler
// unchanged.
func (c *Coordinator) Handler(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("/v1/sweep", api.SweepHandler(c.planSweep, true))
	mux.HandleFunc("/readyz", c.handleReady)
	return mux
}

// handleReady overlays the coordinator's fleet view on the local
// service's readiness report: the node is degraded when the service
// says so (saturated job queue) OR any worker circuit is non-closed —
// sweeps still complete (survivors absorb ranges, local fallback
// covers a dark fleet) but with reduced capacity. /healthz stays a
// plain liveness probe; only /readyz carries the degradation signal.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	st := struct {
		api.ReadyStatus
		Fleet FleetStatus `json:"fleet"`
	}{c.cfg.Service.ReadyStatus(), c.Status()}
	st.Degraded = st.Degraded || st.Fleet.Degraded
	api.WriteReady(w, st)
}
