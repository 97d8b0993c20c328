package sim

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/rng"
)

type mode int

const (
	// modeSchedule: the application follows the periodic checkpoint
	// schedule (phases 1..3 of the period).
	modeSchedule mode = iota
	// modeStall: downtime + recovery (+ blocking retransmissions for
	// the BoF protocols); no work progresses.
	modeStall
	// modeReexec: re-executing the work lost to the last failure; at
	// reduced rate while the buddy images are still being re-received
	// (NBL protocols).
	modeReexec
)

const workEps = 1e-9

// fmin and fmax are branch-only float min/max for the hot path. Every
// operand there is finite (and non-negative), so math.Min/Max's NaN
// and signed-zero handling is dead weight; for such operands the
// result is bit-identical to math.Min/Max.
func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// riskEntry records one node whose images are being restored: the
// restoration (risk) window closes at end. The engine keeps these in a
// small reusable slice — buddy groups have 2 or 3 members and risk
// windows are short, so the set holds a handful of entries at most and
// the old map was pure allocation and hashing overhead.
type riskEntry struct {
	node int
	end  float64
}

// engine is the state of one simulated execution. The embedded
// compiled block is the immutable per-batch precomputation; everything
// else is per-run state rewound by reset, so one engine serves a whole
// Monte-Carlo batch without allocating.
type engine struct {
	compiled
	// ff is the exact fault-free fast-forward (replayPeriods); the
	// detailed engine, whose commit observer disables it, leaves it
	// zero.
	ff periodReplay

	// Failure source: exactly one of merged / renewal / src is active.
	// merged is the concrete exponential fast path (no interface
	// dispatch, no per-run stream allocation); renewal covers Config.Law
	// and the per-node laws of MTBF groups; src covers externally
	// supplied sources (trace replay).
	merged  *failure.Merged
	renewal *failure.Renewal
	src     failure.Source
	// domains, when the config sets a burst model, wraps the active
	// source above and takes over nextFailure.
	domains *failure.Domains
	// replay is src's concrete type when it is a rewindable trace
	// replay, so reset can rewind it for batch reuse.
	replay *failure.Replay
	stream rng.Stream // owned stream backing merged / renewal / domains
	// antithetic selects the reflected-uniform failure sample for the
	// next reset: the run consumes the identical raw RNG state (same
	// victims, same draw counts) but every inter-arrival time is drawn
	// from the reflected quantile, which is what makes a (seed, seed)
	// pair of plain+antithetic runs negatively correlated.
	antithetic bool

	// timeline state
	t               float64
	work            float64 // current live work level
	snapshotWork    float64 // work level of the last committed snapshot
	periodStartWork float64 // work level at offset 0 of the current period
	md              mode
	offset          float64 // period offset, valid in modeSchedule
	stallRemaining  float64
	reexecRemaining float64 // work units still to re-execute
	overlapRemain   float64 // time left in the reduced-rate window
	resumeOffset    float64 // where the schedule resumes after re-execution

	// risk state: nodes inside their restoration window.
	comp      []riskEntry
	riskUntil float64 // end of the current union of risk windows
	// everCommitted: a snapshot set has committed. Before that, the
	// rollback target is the initial configuration, which the paper
	// treats as "always successful": no failure chain is fatal yet.
	everCommitted bool

	// onCommit, when set, is invoked at every snapshot commit with
	// the current time (used by the detailed simulator to keep the
	// checkpoint registry in lockstep). Setting it disables the
	// fault-free period fast-forward, so every commit is observed.
	onCommit func(t float64)

	// err records a run-level failure condition (trace exhausted before
	// the simulation could conclude); reset clears it.
	err error

	res Result
}

// newEngine compiles cfg and builds a single-use engine honoring
// cfg.Source (the path used by Run and the detailed simulator).
func newEngine(cfg Config) (*engine, error) {
	c, err := compileConfig(cfg)
	if err != nil {
		return nil, err
	}
	e := &engine{compiled: c, ff: newPeriodReplay(&c), comp: make([]riskEntry, 0, 16)}
	e.initSource(cfg.Source)
	e.reset(cfg.Seed)
	return e, nil
}

// initSource installs the failure source: an external Source when
// given, the per-node renewal process when a Law (or per-group MTBF
// weights) is set, and the merged exponential process otherwise. A
// configured burst model wraps whichever background is active.
func (e *engine) initSource(src failure.Source) {
	var bg failure.Source
	switch {
	case src != nil:
		e.src = src
		if r, ok := src.(*failure.Replay); ok {
			e.replay = r
		}
		bg = src
	case e.nodeLaws != nil:
		e.renewal = failure.NewRenewal(e.nodeLaws, &e.stream)
		bg = e.renewal
	case e.law != nil:
		e.renewal = failure.NewRenewalUniform(e.p.N, e.law, &e.stream)
		bg = e.renewal
	default:
		e.merged = failure.NewMerged(e.p.N, e.p.M, &e.stream)
		bg = e.merged
	}
	if e.corr != nil && e.corr.Domains != nil {
		// The burst stream splits from e.stream without advancing it, so
		// the background's draws are exactly what they would be unwrapped.
		e.domains = failure.NewDomains(e.p.N, *e.corr.Domains, bg, &e.stream)
	}
}

// reset rewinds the engine to the start of a fresh run with the given
// seed. It allocates nothing: the risk set keeps its backing array and
// the failure source is reseeded in place.
func (e *engine) reset(seed uint64) {
	e.t = 0
	e.work = 0
	e.snapshotWork = 0
	e.periodStartWork = 0
	e.md = modeSchedule
	e.offset = 0
	e.stallRemaining = 0
	e.reexecRemaining = 0
	e.overlapRemain = 0
	e.resumeOffset = 0
	e.comp = e.comp[:0]
	e.riskUntil = 0
	e.everCommitted = false
	e.res = Result{Period: e.period}
	e.err = nil
	// The reflection mode is applied before reseeding: Reseed preserves
	// it (and renewal child streams inherit it through ReseedSplit), so
	// the whole failure sample of the run is plain or antithetic as one.
	e.stream.SetReflected(e.antithetic)
	switch {
	case e.merged != nil:
		e.merged.Reseed(seed)
	case e.renewal != nil:
		e.stream.Reseed(seed)
		e.renewal.Reseed(&e.stream)
	default:
		if e.replay != nil {
			e.replay.Rewind()
		}
		if e.domains != nil {
			// No generative background owns the stream; seed it so the
			// burst process still derives deterministically from the seed.
			e.stream.Reseed(seed)
		}
	}
	if e.domains != nil {
		// After the background: the burst stream re-derives from the
		// freshly seeded parent state (without advancing it).
		e.domains.Reseed(&e.stream)
	}
}

// runSeed executes one full run of the given seed, with the plain or
// the antithetic (reflected-uniform) failure sample.
// runSeed(seed, false) is bitwise identical to the historical
// reset+run path.
func (e *engine) runSeed(seed uint64, antithetic bool) Result {
	e.antithetic = antithetic
	e.reset(seed)
	return e.run()
}

// nextFailure draws the next failure from whichever source is active.
// The merged exponential path is a concrete call the compiler can
// devirtualize and inline.
func (e *engine) nextFailure() (failure.Event, bool) {
	if e.domains != nil {
		return e.domains.Next()
	}
	if e.merged != nil {
		return e.merged.Next()
	}
	if e.renewal != nil {
		return e.renewal.Next()
	}
	return e.src.Next()
}

// sourceCoverage returns the absolute time up to which the active
// source's silence is meaningful. Generative sources never exhaust, so
// the question only arises for bounded sources (trace replays, wrapped
// or not); everything else covers forever.
func (e *engine) sourceCoverage() float64 {
	var s failure.Source
	switch {
	case e.domains != nil:
		s = e.domains
	case e.src != nil:
		s = e.src
	default:
		return math.Inf(1)
	}
	if b, ok := s.(failure.Bounded); ok {
		return b.CoverageHorizon()
	}
	return math.Inf(1)
}

// scheduleWork returns the work accomplished by the schedule between
// period offset 0 and the given offset, in a fault-free period.
func (c *compiled) scheduleWork(offset float64) float64 {
	c1 := c.phases.Ckpt1
	c2 := c1 + c.phases.Ckpt2
	var w float64
	if c.pr.IsTriple() {
		w += fmin(offset, c1) * c.exRate
	}
	if offset > c1 {
		w += (fmin(offset, c2) - c1) * c.exRate
	}
	if offset > c2 {
		w += offset - c2
	}
	return w
}

// segment returns the phase index (1..3), work rate and end offset of
// the schedule segment containing the given period offset.
func (c *compiled) segment(offset float64) (idx int, rate, segEnd float64) {
	c1 := c.phases.Ckpt1
	c2 := c1 + c.phases.Ckpt2
	switch {
	case offset < c1:
		if c.pr.IsTriple() {
			return 1, c.exRate, c1
		}
		return 1, 0, c1 // blocking local checkpoint
	case offset < c2:
		return 2, c.exRate, c2
	default:
		return 3, 1, c.period
	}
}

// advanceUntil advances the timeline to target (absolute time) or
// until the application completes, whichever comes first. It returns
// true on completion.
func (e *engine) advanceUntil(target float64) bool {
	for e.t < target-workEps {
		dt := target - e.t
		switch e.md {
		case modeSchedule:
			// Fast-forward: at a period start with no open risk window
			// and no commit observer, every full fault-free period until
			// the target is pure schedule repetition — commit bookkeeping
			// included — so it collapses to a handful of float additions
			// per period. The additions replicate the stepwise walk's
			// operations exactly (same operands, same order), so the
			// trajectory is bitwise identical to the general loop; the
			// saving is the per-segment dispatch, min/need guards and
			// divisions, which is where the bulk of the simulated time
			// goes on healthy platforms (failures are many periods
			// apart).
			if e.offset == 0 && e.onCommit == nil && e.riskUntil <= e.t &&
				dt >= e.period+workEps {
				if e.replayPeriods(target) {
					continue
				}
			}
			idx, rate, segEnd := e.segment(e.offset)
			step := fmin(dt, segEnd-e.offset)
			if rate > 0 {
				if need := (e.tbase - e.work) / rate; need < step {
					step = need
				}
			}
			e.t += step
			e.offset += step
			e.work += rate * step
			if e.work >= e.tbase-workEps {
				return true
			}
			if e.offset >= segEnd-workEps {
				e.crossBoundary(idx, segEnd)
			}
		case modeStall:
			step := fmin(dt, e.stallRemaining)
			e.t += step
			e.stallRemaining -= step
			if e.stallRemaining <= workEps {
				e.stallRemaining = 0
				e.md = modeReexec
			}
		case modeReexec:
			rate := 1.0
			limit := dt
			if e.overlapRemain > 0 {
				rate = e.exRate
				limit = fmin(limit, e.overlapRemain)
			}
			if e.reexecRemaining <= workEps {
				e.finishReexec()
				continue
			}
			step := limit
			if rate > 0 {
				if need := e.reexecRemaining / rate; need < step {
					step = need
				}
				if need := (e.tbase - e.work) / rate; need < step {
					step = need
				}
			}
			e.t += step
			e.work += rate * step
			e.reexecRemaining -= rate * step
			if e.overlapRemain > 0 {
				e.overlapRemain -= step
				if e.overlapRemain < workEps {
					e.overlapRemain = 0
				}
			}
			if e.work >= e.tbase-workEps {
				return true
			}
			if e.reexecRemaining <= workEps {
				e.finishReexec()
			}
		}
	}
	e.t = target
	return false
}

// replayPeriods advances the timeline through as many full fault-free
// periods as fit strictly before target without risking completion,
// landing on the stepwise walk's bits: fastForward reproduces, per
// period, phase 1 (work only for the triple protocols), phase 2, the
// snapshot commit and phase 3, in O(binades) instead of O(periods).
// Each period fits the remaining time with an eps to spare, so the
// stepwise walk would never have clamped a segment inside it; the work
// budget keeps two full periods of headroom below Tbase — far more
// than any rounding drift — so the completion instant is always
// resolved by the stepwise walk. The caller guarantees no open risk
// window and no commit observer, so the skipped commits reduce to
// snapshot bookkeeping (pending risk entries can only be expired ones;
// the first skipped commit would have cleared them). It reports
// whether any period was replayed.
func (e *engine) replayPeriods(target float64) bool {
	workCap := e.tbase - 2*e.periodWork
	if e.periodWork <= 0 || !(target-e.t >= e.period+workEps && e.work < workCap) {
		return false
	}
	e.t, e.work, e.snapshotWork = e.ff.fastForward(e.t, e.work, target, workCap)
	e.periodStartWork = e.work
	e.comp = e.comp[:0]
	e.everCommitted = true
	e.offset = 0
	return true
}

// periodReplay is the scalar engine's exact fast-forward state.
// clockAdds and workAdds are one fault-free period's additions in the
// stepwise walk's order: c1, seg2, seg3 on the clock and wc1, wc2, seg3
// on the work level (wc1 is 0 for the double protocols, whose phase 1
// does no work). Each is rounded and stored once, so a fused
// multiply-add cannot make the replay loop and the fast-forward add
// different values. clockStep and workStep cache the step for the
// binade each chain was last in; a runner's bind builds a fresh
// periodReplay, so a rebound runner starts with an empty cache.
type periodReplay struct {
	period              float64
	clockAdds, workAdds [3]float64
	clockStep, workStep binadeStep
}

// newPeriodReplay returns the fast-forward state of a compiled batch.
func newPeriodReplay(c *compiled) periodReplay {
	c1 := c.phases.Ckpt1
	c2 := c1 + c.phases.Ckpt2
	var wc1 float64
	if c.pr.IsTriple() {
		wc1 = float64(c.exRate * c1)
	}
	return periodReplay{
		period:    c.period,
		clockAdds: [3]float64{c1, c2 - c1, c.period - c2},
		workAdds:  [3]float64{wc1, float64(c.exRate * (c2 - c1)), c.period - c2},
	}
}

// fastForward advances the clock t and the work level w through whole
// fault-free periods for as long as the per-period replay loop
//
//	for target-t >= period+workEps && w < workCap {
//		snap = w
//		t += c1; t += seg2; t += seg3
//		w += wc1; w += wc2; w += seg3
//	}
//
// would run, and lands on that loop's bits. While t and w stay in their
// binades every period adds the same exact step to each (binadeStep),
// so j periods add j·step with no rounding. The jump count is a
// candidate from the four bounds (time, work cap, the two binade tops),
// corrected against the loop's own test at the exact t_j, w_j; the
// test is monotone in j. Binade crossings, ties and zero run the loop
// body for one period. It returns the clock, the work level and the
// snapshot: the work level at the start of the last period.
func (r *periodReplay) fastForward(t, w, target, workCap float64) (float64, float64, float64) {
	limit := r.period + workEps
	snap := w
	ct, cw := &r.clockStep, &r.workStep
	for target-t >= limit && w < workCap {
		if e := math.Float64bits(t) >> 52; e != ct.exp {
			ct.fill(e, &r.clockAdds)
		}
		if e := math.Float64bits(w) >> 52; e != cw.exp {
			cw.fill(e, &r.workAdds)
		}
		var k int64
		dt, dw := ct.step, cw.step
		if dt > 0 && dw > 0 {
			// jumps(j): period j+1 runs and ends inside both binades.
			jumps := func(j int64) bool {
				tj, wj := t+float64(j)*dt, w+float64(j)*dw
				return target-tj >= limit && wj < workCap && tj+dt < ct.top && wj+dw < cw.top
			}
			k = int64(fmin(fmin((target-t-limit)*ct.inv+1, (workCap-w)*cw.inv),
				fmin((ct.top-t)*ct.inv, (cw.top-w)*cw.inv)))
			for k > 0 && !jumps(k-1) {
				k--
			}
			for jumps(k) {
				k++
			}
		}
		if k == 0 {
			snap = w
			t += r.clockAdds[0]
			t += r.clockAdds[1]
			t += r.clockAdds[2]
			w += r.workAdds[0]
			w += r.workAdds[1]
			w += r.workAdds[2]
			continue
		}
		snap = w + float64(k-1)*dw
		t += float64(k) * dt
		w += float64(k) * dw
	}
	return t, w, snap
}

// binadeStep is what one period of a chain's additions (the clock's or
// the work level's) adds to any x in the binade [2^e, 2^(e+1)). There
// the float grid is fixed at u = ulp(x), so x + a rounds to x + RN_u(a)
// for every addend a ≥ 0 whose a/u is not an exact tie (a tie would
// round by x's parity), and a period adds exactly step = ΣRN_u(a) as
// long as the sum stays below the binade's top.
type binadeStep struct {
	exp  uint64  // the binade, as x's biased exponent bits
	step float64 // ΣRN_u(a); 0 when there is no exact step
	inv  float64 // 1/step, for the count candidates
	top  float64 // 2^(e+1)
}

// fill computes the step of binade exp. There is none — the caller
// runs one period the stepwise way — when x is zero, tiny, not finite
// or negative, when an addend is negative or ties, or when the addends
// round to nothing.
func (s *binadeStep) fill(exp uint64, adds *[3]float64) {
	*s = binadeStep{exp: exp}
	if exp <= 52 || exp >= 0x7ff {
		return
	}
	// r + 2^52 − 2^52 rounds r ∈ [0, 2^52) to an integer, ties to even.
	const magic = 1 << 52
	inv := math.Float64frombits((2098 - exp) << 52) // 1/u, exact
	var n float64                                   // ΣRN_u(a)/u
	for _, a := range adds {
		r := a * inv
		if !(r >= 0 && r < magic) {
			return
		}
		q := r + magic - magic
		if math.Abs(q-r) == 0.5 {
			return
		}
		n += q
	}
	if n == 0 {
		return
	}
	s.step = n * math.Float64frombits((exp-52)<<52)
	s.inv = 1 / s.step
	s.top = math.Float64frombits((exp + 1) << 52)
}

// crossBoundary applies the schedule transition at the end of phase
// idx. Dispatching on the phase index (not the boundary value) keeps
// degenerate periods with σ = 0, where the phase-2 boundary coincides
// with the period end, from looping.
func (e *engine) crossBoundary(idx int, segEnd float64) {
	switch idx {
	case 1:
		if e.pr.IsTriple() {
			// Triple commits once the image reaches the preferred buddy.
			e.commit()
		}
		e.offset = segEnd
	case 2:
		if !e.pr.IsTriple() {
			// Double commits when the remote exchange completes.
			e.commit()
		}
		e.offset = segEnd
	default:
		e.periodStartWork = e.work
		e.offset = 0
	}
}

// commit records a snapshot-set commit. A committed set means every
// rank's image — including the ranks restored after recent failures —
// is fully replicated again, so all open risk windows close early.
// (In steady state commits always land after the windows anyway; the
// distinction matters only for failures straddling the first commits,
// where re-execution is short.)
func (e *engine) commit() {
	e.snapshotWork = e.periodStartWork
	e.everCommitted = true
	e.comp = e.comp[:0]
	if e.riskUntil > e.t {
		e.res.RiskTime -= e.riskUntil - e.t
		e.riskUntil = e.t
	}
	if e.onCommit != nil {
		e.onCommit(e.t)
	}
}

// finishReexec re-enters the periodic schedule at the resume offset.
func (e *engine) finishReexec() {
	e.md = modeSchedule
	e.reexecRemaining = 0
	e.offset = e.resumeOffset
	if e.resumeOffset == 0 {
		e.periodStartWork = e.work
	}
}

// applyFailure processes the failure of the given node at the current
// time. It returns true when the failure is fatal.
func (e *engine) applyFailure(node int) bool {
	e.res.Failures++

	// --- Risk bookkeeping -------------------------------------------------
	gStart := (node / e.group) * e.group
	others := 0
	nodeAt := -1
	for i := 0; i < len(e.comp); {
		en := e.comp[i]
		if en.end <= e.t {
			// Expired window: drop the entry (swap-remove; set order is
			// irrelevant).
			e.comp[i] = e.comp[len(e.comp)-1]
			e.comp = e.comp[:len(e.comp)-1]
			continue
		}
		if en.node == node {
			nodeAt = i
		} else if en.node >= gStart && en.node < gStart+e.group {
			others++
		}
		i++
	}
	if others > 0 {
		// Before the first commit the rollback target is the initial
		// configuration, which survives any failure pattern (§IV).
		if others >= e.group-1 && e.everCommitted {
			e.res.Fatal = true
			e.res.FatalTime = e.t
			return true
		}
		e.res.FailuresInRisk++
	}
	if nodeAt >= 0 {
		e.comp[nodeAt].end = e.t + e.risk
	} else {
		e.comp = append(e.comp, riskEntry{node: node, end: e.t + e.risk})
	}

	// Union of risk windows, for the RiskTime metric.
	start := fmax(e.t, e.riskUntil)
	if end := e.t + e.risk; end > start {
		e.res.RiskTime += end - start
		e.riskUntil = end
	}

	// First-order importance estimate of the fatal-chain probability
	// opened by this failure (see Result.ImportanceFatalProb).
	e.res.ImportanceFatalProb += e.impFatal

	// --- Rollback ----------------------------------------------------------
	if e.md == modeSchedule {
		// Decide where the schedule resumes, reproducing the model's
		// per-phase rules (DESIGN.md).
		switch e.phases.PhaseOf(e.offset) {
		case 1:
			e.resumeOffset = 0
		case 2:
			if e.pr.IsTriple() {
				e.resumeOffset = e.phases.Ckpt1
			} else {
				e.resumeOffset = 0
			}
		default:
			e.resumeOffset = e.offset
		}
	}
	// else: a failure during failure handling keeps the previous
	// resume target; the handling simply restarts.

	e.work = e.snapshotWork
	reexec := e.periodStartWork + e.scheduleWork(e.resumeOffset) - e.snapshotWork
	if reexec < 0 {
		reexec = 0
	}
	e.reexecRemaining = reexec

	e.stallRemaining = e.p.D + e.p.R
	if e.pr.BlocksOnFailure() {
		e.stallRemaining += float64(e.images) * e.p.R
		e.overlapRemain = 0
	} else {
		e.overlapRemain = float64(e.images) * e.theta
	}
	e.md = modeStall
	return false
}

// faultFreeMakespan returns the time the fault-free schedule takes to
// produce the given amount of work.
func (c *compiled) faultFreeMakespan(workTarget float64) float64 {
	if workTarget <= 0 {
		return 0
	}
	full := math.Floor(workTarget / c.periodWork)
	return c.scheduleTime(full*c.period, workTarget-full*c.periodWork)
}

// scheduleTime returns tm plus the time a fault-free period takes, from
// its start, to accomplish rem ≤ periodWork work (nothing for rem ≤
// workEps): the within-period inverse of scheduleWork, walking the
// phases in order.
func (c *compiled) scheduleTime(tm, rem float64) float64 {
	if rem <= workEps {
		return tm
	}
	c1, c2 := c.phases.Ckpt1, c.phases.Ckpt2
	if c.pr.IsTriple() && c.exRate > 0 {
		cap1 := c1 * c.exRate
		if rem <= cap1 {
			return tm + rem/c.exRate
		}
		rem -= cap1
		tm += c1
	} else {
		tm += c1 // blocking local checkpoint contributes no work
	}
	cap2 := c2 * c.exRate
	if c.exRate > 0 && rem <= cap2 {
		return tm + rem/c.exRate
	}
	rem -= cap2
	tm += c2
	return tm + rem
}

// run executes the simulation loop.
func (e *engine) run() Result {
	for {
		ev, ok := e.nextFailure()
		target := e.horizon
		if ok && ev.Time < e.horizon {
			target = ev.Time
		}
		if !ok {
			// An exhausted bounded source vouches for silence only up to
			// its coverage; the run may finish inside it but must not
			// coast fault-free past it.
			if cov := e.sourceCoverage(); cov < target {
				target = cov
			}
		}
		if e.advanceUntil(target) {
			e.res.Completed = true
			break
		}
		if !ok {
			if cov := e.sourceCoverage(); cov < e.horizon {
				e.err = fmt.Errorf("%w: log covers [0, %v], simulation still running at t=%v",
					failure.ErrTraceExhausted, cov, e.t)
			}
			break // horizon reached, trace exhausted, or coverage ended
		}
		if ev.Time >= e.horizon {
			break // horizon reached (saturated)
		}
		if e.applyFailure(ev.Node) {
			break // fatal
		}
	}
	e.res.Makespan = e.t
	e.res.WorkDone = math.Min(e.work, e.tbase)
	if e.res.Makespan > 0 {
		e.res.Waste = 1 - e.res.WorkDone/e.res.Makespan
	}
	e.res.LostTime = e.res.Makespan - e.faultFreeMakespan(e.res.WorkDone)
	return e.res
}
