package api

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/scenario"
)

// fmtBatchKey and fmtPointKey are the fmt-based key formatters the
// strconv builders replaced, kept as the reference: keys seed every
// point, so a single differing byte would change every simulated
// result and every golden.
func fmtBatchKey(backend string, req engine.Request) string {
	p := req.Params
	var b strings.Builder
	b.WriteString(req.Protocol.String())
	for _, f := range []float64{p.D, p.Delta, p.R, p.Alpha, p.M, req.Phi, req.Period, req.Tbase} {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(f, 'x', -1, 64))
	}
	fmt.Fprintf(&b, "|n=%d", p.N)
	if req.Law != nil {
		fmt.Fprintf(&b, "|law=%#v", req.Law)
	}
	if req.MaxSimTime != 0 {
		fmt.Fprintf(&b, "|maxt=%s", strconv.FormatFloat(req.MaxSimTime, 'x', -1, 64))
	}
	if backend != "" && backend != "fast" {
		fmt.Fprintf(&b, "|backend=%s", backend)
	}
	if req.ImageBytes != 0 {
		fmt.Fprintf(&b, "|img=%d", req.ImageBytes)
	}
	if req.Spares != 0 {
		fmt.Fprintf(&b, "|spares=%d", req.Spares)
	}
	if req.Global != nil {
		fmt.Fprintf(&b, "|g=%s|rg=%s|k=%d",
			strconv.FormatFloat(req.Global.G, 'x', -1, 64),
			strconv.FormatFloat(req.Global.Rg, 'x', -1, 64),
			req.Global.K)
	}
	if c := req.Correlation; c != nil {
		if d := c.Domains; d != nil {
			fmt.Fprintf(&b, "|dom=%d:%s", d.Size, strconv.FormatFloat(d.Rate, 'x', -1, 64))
			if d.Stripe {
				b.WriteString(":stripe")
			}
		}
		if len(c.Groups) > 0 {
			b.WriteString("|groups=")
			for i, w := range c.Groups {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatFloat(w, 'x', -1, 64))
			}
		}
	}
	if req.TraceID != "" {
		b.WriteString("|trace=")
		b.WriteString(req.TraceID)
	}
	return b.String()
}

func fmtPointKey(backend string, req engine.Request, runs int, baseSeed uint64, spec engine.Precision) string {
	key := fmtBatchKey(backend, req) + fmt.Sprintf("|runs=%d|seed=%d", runs, baseSeed)
	if spec.Enabled() {
		key += fmt.Sprintf("|relerr=%s|maxruns=%d",
			strconv.FormatFloat(spec.TargetRelErr, 'x', -1, 64), spec.MaxRuns)
	}
	return key
}

// TestKeysMatchFmtFormatter pins the strconv key builders byte for
// byte to the fmt formatter on every optional field: law (each
// concrete law), horizon, backend, substrate shape,
// global level, failure domains with and without stripes, MTBF groups,
// trace id and the adaptive precision spec — alone and all together.
func TestKeysMatchFmtFormatter(t *testing.T) {
	p := scenario.Base().Params.WithMTBF(1800)
	base := engine.Request{Protocol: core.DoubleNBL, Params: p, Phi: 1.5, Period: 0, Tbase: 1e5}
	adaptive := engine.Precision{TargetRelErr: 0.005, MinRuns: 8, MaxRuns: 256}
	all := base
	all.Law = failure.Weibull{Shape: 0.7, MTBF: 1.26e7}
	all.MaxSimTime = 3.3e8
	all.ImageBytes = 1 << 29
	all.Spares = 12
	all.Global = &engine.Global{G: 200, Rg: 100.5, K: 3}
	all.Correlation = &failure.Correlation{
		Domains: &failure.DomainSpec{Size: 8, Rate: 1e-5, Stripe: true},
		Groups:  []float64{2, 1, 0.25},
	}
	all.TraceID = "cronos@0123456789ab"

	cases := []struct {
		name    string
		backend string
		edit    func(*engine.Request)
		spec    engine.Precision
	}{
		{name: "default", backend: "fast"},
		{name: "empty backend", backend: ""},
		{name: "weibull", backend: "fast", edit: func(r *engine.Request) { r.Law = failure.Weibull{Shape: 0.7, MTBF: 1.26e7} }},
		{name: "lognormal", backend: "fast", edit: func(r *engine.Request) { r.Law = failure.LogNormal{MTBF: 5.5e-5, Sigma: 1e21} }},
		{name: "exponential", backend: "fast", edit: func(r *engine.Request) { r.Law = failure.Exponential{MTBF: 123456789} }},
		{name: "maxt", backend: "fast", edit: func(r *engine.Request) { r.MaxSimTime = 1.2e4 }},
		{name: "detailed", backend: "detailed"},
		{name: "multilevel", backend: "multilevel"},
		{name: "img", backend: "detailed", edit: func(r *engine.Request) { r.ImageBytes = 512 << 20 }},
		{name: "spares", backend: "detailed", edit: func(r *engine.Request) { r.Spares = 7 }},
		{name: "global", backend: "multilevel", edit: func(r *engine.Request) { r.Global = &engine.Global{G: 200, Rg: 200, K: 0} }},
		{name: "domains", backend: "fast", edit: func(r *engine.Request) {
			r.Correlation = &failure.Correlation{Domains: &failure.DomainSpec{Size: 4, Rate: 2e-6}}
		}},
		{name: "domains stripe", backend: "fast", edit: func(r *engine.Request) {
			r.Correlation = &failure.Correlation{Domains: &failure.DomainSpec{Size: 4, Rate: 2e-6, Stripe: true}}
		}},
		{name: "groups", backend: "fast", edit: func(r *engine.Request) {
			r.Correlation = &failure.Correlation{Groups: []float64{3, 1}}
		}},
		{name: "trace", backend: "detailed", edit: func(r *engine.Request) { r.TraceID = "lanl@abcdef012345" }},
		{name: "adaptive", backend: "fast", spec: adaptive},
		{name: "all", backend: "detailed", edit: func(r *engine.Request) { *r = all }, spec: adaptive},
	}
	rnd := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		req := base
		if tc.edit != nil {
			tc.edit(&req)
		}
		if got, want := batchKey(tc.backend, req), fmtBatchKey(tc.backend, req); got != want {
			t.Errorf("%s: batchKey\n got %q\nwant %q", tc.name, got, want)
		}
		for _, runs := range []int{1, 8, 256} {
			seed := rnd.Uint64()
			if got, want := pointKey(tc.backend, req, runs, seed, tc.spec), fmtPointKey(tc.backend, req, runs, seed, tc.spec); got != want {
				t.Errorf("%s: pointKey(runs %d, seed %d)\n got %q\nwant %q", tc.name, runs, seed, got, want)
			}
		}
	}
}
