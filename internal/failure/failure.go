// Package failure models node failures: the failure laws
// (Exponential, as assumed by the paper; Weibull and LogNormal for the
// related-work comparisons of §VII), per-node renewal processes, the
// merged platform-level process, and recordable/replayable failure
// traces.
//
// MTBF conventions follow the paper: a platform of n nodes with
// individual MTBF Mind behaves like a single node of MTBF M = Mind/n,
// and the per-node failure rate is λ = 1/(n·M).
package failure

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/eventq"
	"repro/internal/rng"
)

// Law is an inter-arrival distribution for the failures of one node.
type Law interface {
	// Sample draws the time from one failure (or node birth) to the
	// next failure of the same node.
	Sample(s *rng.Stream) float64
	// Mean returns the distribution mean (the individual MTBF).
	Mean() float64
	// Name identifies the law in reports.
	Name() string
}

// Exponential is the memoryless law assumed throughout the paper's
// analysis. MTBF is the mean time between failures of one node.
type Exponential struct{ MTBF float64 }

// Sample draws an Exponential inter-arrival time.
func (e Exponential) Sample(s *rng.Stream) float64 { return s.Exponential(1 / e.MTBF) }

// Mean returns the individual MTBF.
func (e Exponential) Mean() float64 { return e.MTBF }

// Name returns "exponential".
func (e Exponential) Name() string { return "exponential" }

// Weibull is the heavy-tailed law used by the checkpoint-placement
// literature cited in §VII ([8], [9], [10]): Shape < 1 yields the
// decreasing hazard rate observed on production machines. MTBF is the
// mean; the scale is derived as MTBF/Γ(1+1/Shape).
type Weibull struct {
	Shape float64
	MTBF  float64
}

// Scale returns the Weibull scale parameter matching the mean.
func (w Weibull) Scale() float64 { return w.MTBF / math.Gamma(1+1/w.Shape) }

// Sample draws a Weibull inter-arrival time.
func (w Weibull) Sample(s *rng.Stream) float64 { return s.Weibull(w.Shape, w.Scale()) }

// Mean returns the individual MTBF.
func (w Weibull) Mean() float64 { return w.MTBF }

// Name returns "weibull(k)".
func (w Weibull) Name() string { return fmt.Sprintf("weibull(%g)", w.Shape) }

// LogNormal models failure clustering through a multiplicative noise
// parameter Sigma; the mean is MTBF.
type LogNormal struct {
	MTBF  float64
	Sigma float64
}

// Sample draws a LogNormal inter-arrival time with mean MTBF.
func (l LogNormal) Sample(s *rng.Stream) float64 {
	// mean of LogNormal(mu, sigma) is exp(mu + sigma²/2).
	mu := math.Log(l.MTBF) - l.Sigma*l.Sigma/2
	return s.LogNormal(mu, l.Sigma)
}

// Mean returns the individual MTBF.
func (l LogNormal) Mean() float64 { return l.MTBF }

// Name returns "lognormal(sigma)".
func (l LogNormal) Name() string { return fmt.Sprintf("lognormal(%g)", l.Sigma) }

// PlatformMTBF converts an individual node MTBF into the platform
// MTBF M = Mind/n.
func PlatformMTBF(individual float64, n int) float64 { return individual / float64(n) }

// IndividualMTBF converts a platform MTBF into the per-node MTBF
// Mind = n·M.
func IndividualMTBF(platform float64, n int) float64 { return platform * float64(n) }

// Event is one failure: the absolute time and the victim node.
type Event struct {
	Time float64 `json:"t"`
	Node int     `json:"node"`
}

// Source produces a platform's failure sequence in non-decreasing
// time order.
type Source interface {
	// Next returns the next failure. ok is false when the source is
	// exhausted (generative sources never exhaust).
	Next() (Event, bool)
}

// Merged is the platform-level failure process for Exponential laws:
// the superposition of n independent Poisson processes is a Poisson
// process of rate n·λ = 1/M whose victims are uniform over the nodes.
// This is what makes simulating a 10⁶-node platform cheap.
type Merged struct {
	n      int
	rate   float64
	now    float64
	stream *rng.Stream
}

// NewMerged returns a merged source for n nodes and platform MTBF m.
func NewMerged(n int, platformMTBF float64, stream *rng.Stream) *Merged {
	if n < 1 || platformMTBF <= 0 {
		panic("failure: invalid merged source parameters")
	}
	return &Merged{n: n, rate: 1 / platformMTBF, stream: stream}
}

// Next draws the next platform failure. It never allocates, which
// makes it the simulator's zero-allocation exponential fast path; the
// engine calls it through the concrete *Merged (no interface dispatch).
func (m *Merged) Next() (Event, bool) {
	m.now += m.stream.Exponential(m.rate)
	return Event{Time: m.now, Node: m.stream.Intn(m.n)}, true
}

// Reseed rewinds the merged process for a fresh run: the clock returns
// to 0 and the underlying stream is reseeded in place, so one Merged
// can serve an entire Monte-Carlo batch without per-run allocation.
func (m *Merged) Reseed(seed uint64) {
	m.now = 0
	m.stream.Reseed(seed)
}

// FillEventsZiggurat fills times/nodes with the next len(times)
// platform failures, drawing the inter-arrival times from the
// log-free ziggurat sampler instead of Next's inverse CDF: the same
// distribution, a different stream consumption, so the event sequence
// is statistically — not bitwise — equivalent to Next's. It is the
// lane kernel's refill; nodes must be at least len(times)
// long.
func (m *Merged) FillEventsZiggurat(times []float64, nodes []int32) {
	n := len(times)
	nodes = nodes[:n]
	now := m.now
	for k := range times {
		now += m.stream.ExpZiggurat(m.rate)
		times[k] = now
		nodes[k] = int32(m.stream.Intn(m.n))
	}
	m.now = now
}

// Renewal is the node-level failure process: each node independently
// draws inter-arrival times from its law. It supports non-memoryless
// laws (Weibull, LogNormal) at O(log n) per failure.
type Renewal struct {
	q    eventq.Queue[int]
	laws []Law
	strs []rng.Stream
}

// NewRenewal returns a renewal source where node i follows laws[i].
// Each node gets an independent child stream of parent.
func NewRenewal(laws []Law, parent *rng.Stream) *Renewal {
	r := &Renewal{laws: laws, strs: make([]rng.Stream, len(laws))}
	r.Reseed(parent)
	return r
}

// Reseed rewinds the renewal process for a fresh run: every node's
// child stream is re-derived from parent in place and its first
// failure rescheduled, reusing the queue's and streams' storage.
func (r *Renewal) Reseed(parent *rng.Stream) {
	r.q.Clear()
	for i, law := range r.laws {
		r.strs[i].ReseedSplit(parent, uint64(i))
		r.q.Schedule(law.Sample(&r.strs[i]), i)
	}
}

// NewRenewalUniform returns a renewal source where every one of n
// nodes follows the same law.
func NewRenewalUniform(n int, law Law, parent *rng.Stream) *Renewal {
	laws := make([]Law, n)
	for i := range laws {
		laws[i] = law
	}
	return NewRenewal(laws, parent)
}

// Next pops the earliest node failure and schedules that node's
// subsequent failure. It is allocation-free in steady state: the queue
// stores node indices by value, so no event object or interface box is
// created per failure.
func (r *Renewal) Next() (Event, bool) {
	ev, ok := r.q.Pop()
	if !ok {
		return Event{}, false
	}
	node := ev.Payload
	r.q.Schedule(ev.Time+r.laws[node].Sample(&r.strs[node]), node)
	return Event{Time: ev.Time, Node: node}, true
}

// ErrTraceExhausted reports that a simulation needed failures beyond
// the coverage of its replayed trace. Running on regardless would
// silently simulate a fault-free tail and bias waste low, so
// trace-backed runs fail loudly with this error instead.
var ErrTraceExhausted = errors.New("failure: trace exhausted before simulation horizon")

// Bounded is a Source whose silence is only meaningful up to a
// coverage horizon: past it, "no more events" means "unknown", not
// "fault-free". The simulator checks this before treating exhaustion
// as an infinite failure-free suffix.
type Bounded interface {
	Source
	// CoverageHorizon returns the absolute time up to which the
	// source's event log is complete.
	CoverageHorizon() float64
}

// Replay replays a recorded trace.
type Replay struct {
	trace    []Event
	pos      int
	coverage float64
}

// NewReplay returns a source that replays the given raw events in
// order. With no trace metadata the coverage is unbounded (legacy
// semantics): exhaustion means fault-free forever. Use NewReplayTrace
// for recorded traces with a known observation window.
func NewReplay(trace []Event) *Replay {
	return &Replay{trace: trace, coverage: math.Inf(1)}
}

// NewReplayTrace returns a source replaying a recorded trace, bounded
// by the trace's coverage: silence past Trace.Coverage is unknown, and
// a simulation needing events beyond it must fail with
// ErrTraceExhausted rather than run fault-free.
func NewReplayTrace(tr *Trace) *Replay {
	return &Replay{trace: tr.Events, coverage: tr.Coverage()}
}

// Next returns the next recorded failure; ok is false past the end.
func (r *Replay) Next() (Event, bool) {
	if r.pos >= len(r.trace) {
		return Event{}, false
	}
	ev := r.trace[r.pos]
	r.pos++
	return ev, true
}

// CoverageHorizon returns the time up to which the replayed log is
// complete (+Inf for raw event-slice replays).
func (r *Replay) CoverageHorizon() float64 { return r.coverage }

// Rewind restarts the replay from the first event, so one Replay can
// serve every run of a Monte-Carlo batch.
func (r *Replay) Rewind() { r.pos = 0 }

// Recorder wraps a source and keeps every event it produced, so that a
// detailed simulation can be re-run on the exact same failure sample.
type Recorder struct {
	Inner Source
	Log   []Event
}

// Next forwards to the inner source and records the event.
func (rec *Recorder) Next() (Event, bool) {
	ev, ok := rec.Inner.Next()
	if ok {
		rec.Log = append(rec.Log, ev)
	}
	return ev, ok
}
