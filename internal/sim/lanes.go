package sim

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/rng"
)

// This file is the lane kernel (DESIGN.md, "Lane kernel"): a
// LaneRunner executes the runs of one batch one after another, each
// run's mutable state — clock, accumulated work, period position,
// stall/re-execution amounts, risk bookkeeping, Result — in one
// laneRun record on the stack of runLane. The runner keeps what every
// run reuses: one stream, one merged failure process, one prefetched
// event buffer and one risk-entry array. A lane group (laneWidth,
// runGroups in many.go) is only a unit of scheduling and scratch: the
// group is what a worker claims and the seeds it fills in, and setup
// is paid once per group (one bind, one pooled runner).
//
// The kernel has one mode. Every method is a port of engine.go onto
// the run record, with two substitutions. A run moves from one
// failure to the next in closed form: on the schedule, advanceLane
// does period arithmetic on the run's position in its period (whole
// periods, the landing offset, the commits passed) where the scalar
// engine walks segment by segment, and it resolves completion with
// the schedule's within-period inverse. And the inter-arrival times
// come from the log-free ziggurat sampler (rng.Stream.ExpZiggurat)
// instead of the inverse CDF. Results therefore differ from the scalar
// Runner in rounding (FuzzLaneAdvance bounds one advance at 1e-9 of the
// clock) and in the draw sequence: the equivalence is statistical (3σ
// tests on every protocol family, plain and reflected). The path stays
// fully deterministic: a Result is a pure function of (seed,
// reflection), so neither the group width nor a run's position in it
// changes a bit, and the chunked aggregation's worker-count
// independence is untouched. The plain (RunManySeeded) and the
// antithetic (RunAntitheticSeeded) schedules both run here; a
// reflected run draws the ziggurat on the complemented raw bits, which
// leaves its distribution exactly Exp(λ).
//
// Failure events are prefetched in batches
// (failure.Merged.FillEventsZiggurat). Overdrawn events are discarded
// when the next run reseeds the stream.

// DefaultLaneWidth is the lane count the batched executor uses: it
// divides aggChunkSize (chunks split into whole lane groups, keeping
// the merge order of the chunked aggregation unchanged) and is even
// (antithetic pairs occupy adjacent lanes).
const DefaultLaneWidth = 16

// minLaneWidth is the narrowest group the batched executor splits a
// chunk into when the chunk has fewer DefaultLaneWidth groups than
// workers (see laneWidth). Lanes run one after another, so a narrow
// group costs no more per run than a wide one; the floor bounds the
// number of goroutines and group dispatches a small round pays for.
const minLaneWidth = 8

// LaneRunner executes batches of up to `width` runs of one Batch, one
// run after another. Like Runner it is single-goroutine and
// allocation-free in steady state; create one per worker. It requires
// the merged exponential failure path (Config.Law == nil) —
// renewal-law batches fall back to the scalar Runner.
type LaneRunner struct {
	compiled
	width int

	// commitOffset is the period offset of the snapshot commit: the end
	// of phase 1 for the triple protocols and of phase 2 (at most the
	// period) for the double ones. invPeriod is 1/period, for the
	// schedule's period count (corrected against the period either way).
	commitOffset float64
	invPeriod    float64

	// Failure sampling: one content-seeded stream and merged process,
	// reseeded per run, refilling the prefetched events; and the
	// risk-entry array each run's record borrows.
	stream rng.Stream
	merged failure.Merged
	evTime []float64
	evNode []int32
	comp   []riskEntry

	// Batch-executor scratch (aggregateLanes), kept with the runner so
	// that a pooled runner serves a batch without allocating: one
	// group's seeds and reflection flags and, on the runner leading a
	// call, the chunk's Result buffer and the call's other runners.
	seeds []uint64
	anti  []bool
	buf   []Result
	crew  []*LaneRunner
}

// laneRun is one run's mutable state, the lane port of engine's
// timeline fields: it lives on runLane's stack for the run's duration.
type laneRun struct {
	t, work, snapshotWork, periodStartWork float64
	offset                                 float64 // period offset, valid in modeSchedule
	md                                     mode
	stallRemaining, reexecRemaining        float64
	overlapRemain, resumeOffset, riskUntil float64
	everCommitted                          bool
	evPos                                  int // next unread prefetched event
	comp                                   []riskEntry
	res                                    Result
}

// NewLaneRunner returns a lane runner whose groups hold up to width
// runs. Batches with a renewal failure law have no lane path (each run
// would need N per-node streams), and correlated batches none either
// (the closed-form fast-forward assumes independent failures); callers
// fall back to NewRunner.
func (b *Batch) NewLaneRunner(width int) (*LaneRunner, error) {
	if !b.cfg.Lanes() {
		return nil, fmt.Errorf("sim: lane runner requires the i.i.d. merged exponential failure path (no Law, no Correlation)")
	}
	if width < 1 || width > 1<<16 {
		return nil, fmt.Errorf("sim: lane width %d must be in [1, 65536]", width)
	}
	lr := &LaneRunner{width: width}
	lr.comp = make([]riskEntry, 0, 16)
	lr.seeds = make([]uint64, width)
	lr.anti = make([]bool, width)
	lr.bind(b)
	return lr, nil
}

// bind points the runner at batch b, which must be on the i.i.d.
// path: every field derived from the compiled configuration is
// recomputed and the sampler buffer is resized (resliced when its
// capacity allows). Each run starts from a fresh record anyway, so a
// rebound runner produces the same bits as NewLaneRunner on b — which
// is what lets one process-wide pool serve every batch.
func (lr *LaneRunner) bind(b *Batch) {
	lr.compiled = b.c
	lr.invPeriod = 1 / lr.period
	lr.commitOffset = lr.phases.Ckpt1
	if !lr.pr.IsTriple() {
		lr.commitOffset = fmin(lr.phases.Ckpt1+lr.phases.Ckpt2, lr.period)
	}
	lr.merged = *failure.NewMerged(lr.p.N, lr.p.M, &lr.stream)
	lr.SetSamplerBatch(defaultSamplerBatch(lr.tbase, lr.p.M))
}

// defaultSamplerBatch sizes the failure-event prefetch: a quarter of
// the events a run is expected to consume (≈ Tbase / platform MTBF,
// ignoring waste), clamped to [8, 64]. The only wasted sampling is the
// final partial buffer, so short runs keep the overdraw small while
// long runs amortize the refill over 64 pipelined logs.
func defaultSamplerBatch(tbase, platformMTBF float64) int {
	expected := tbase / platformMTBF
	n := int(expected / 4)
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	return n
}

// Width returns the lane count.
func (lr *LaneRunner) Width() int { return lr.width }

// SetSamplerBatch resizes the failure-event prefetch buffer. It must
// be called between batches, not mid-run; n < 1 is clamped to 1
// (per-event refill).
func (lr *LaneRunner) SetSamplerBatch(n int) {
	if n < 1 {
		n = 1
	}
	lr.evTime = resize(lr.evTime, n)
	lr.evNode = resize(lr.evNode, n)
}

// resize returns s with length n, reusing its backing array when the
// capacity allows. The contents are stale: the sampler buffer is
// refilled before it is read.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// RunBatch executes len(seeds) runs (at most Width) and writes their
// Results to out in seed order. anti selects the reflected-uniform
// failure sample per run (nil = all plain). out[l] is statistically
// equivalent to Runner.RunAntithetic(seeds[l], anti[l]) and a pure
// function of (seeds[l], anti[l]).
func (lr *LaneRunner) RunBatch(seeds []uint64, anti []bool, out []Result) {
	if len(seeds) > lr.width {
		panic("sim: RunBatch with more seeds than lanes")
	}
	for l := range seeds {
		out[l] = lr.runLane(seeds[l], anti != nil && anti[l])
	}
}

// runLane is the lane port of engine.run: it rewinds a fresh record
// as engine.reset does — the reflection mode is applied before
// reseeding, so the whole failure sample of the run is plain or
// antithetic as one — and advances it through failures until the run
// finishes (completed, fatal, or horizon-saturated).
func (lr *LaneRunner) runLane(seed uint64, antithetic bool) Result {
	s := laneRun{md: modeSchedule, comp: lr.comp[:0], res: Result{Period: lr.period}}
	lr.stream.SetReflected(antithetic)
	lr.merged.Reseed(seed)
	lr.refill(&s)
	for {
		evT := lr.evTime[s.evPos]
		target := lr.horizon
		hasEv := evT < lr.horizon
		if hasEv {
			target = evT
		}
		if lr.advanceLane(&s, target) {
			s.res.Completed = true
			break
		}
		if !hasEv {
			break // horizon reached (saturated)
		}
		node := int(lr.evNode[s.evPos])
		s.evPos++
		if s.evPos == len(lr.evTime) {
			lr.refill(&s)
		}
		if lr.applyFailureLane(&s, node) {
			break // fatal
		}
	}
	lr.comp = s.comp[:0]
	lr.finishLane(&s)
	return s.res
}

// refill replenishes the prefetched failure events.
func (lr *LaneRunner) refill(s *laneRun) {
	lr.merged.FillEventsZiggurat(lr.evTime, lr.evNode)
	s.evPos = 0
}

// advanceLane is the lane port of engine.advanceUntil: it advances
// the run s to target, or until the work reaches Tbase, and reports
// whether the run completed. The modes only ever follow one another in
// the order stall → re-execution → schedule, so each is one
// straight-line block that either stops the run or hands it to the
// next. Stall and re-execution take the scalar walk's steps, bit for
// bit: at most one per rate, the reduced rate lasting while the buddy
// images are re-received. The schedule is period arithmetic instead of
// a segment walk (DESIGN.md, "Lane kernel").
func (lr *LaneRunner) advanceLane(s *laneRun, target float64) bool {
	t := s.t
	if s.md == modeStall && t < target-workEps {
		step := fmin(target-t, s.stallRemaining)
		t += step
		s.stallRemaining -= step
		if s.stallRemaining <= workEps {
			s.stallRemaining = 0
			s.md = modeReexec
		}
	}
	if s.md == modeReexec && t < target-workEps {
		work, reexec, overlap := s.work, s.reexecRemaining, s.overlapRemain
		if overlap > 0 && reexec > workEps {
			rate := lr.exRate
			step := fmin(target-t, overlap)
			if rate > 0 {
				// Division is monotone, so min(a, b)/rate is the scalar's
				// min(a/rate, b/rate) with one division.
				step = fmin(step, fmin(reexec, lr.tbase-work)/rate)
			}
			t += step
			work += rate * step
			reexec -= rate * step
			overlap -= step
			if overlap < workEps {
				overlap = 0
			}
		}
		if overlap == 0 && reexec > workEps && work < lr.tbase-workEps && t < target-workEps {
			step := fmin(target-t, fmin(reexec, lr.tbase-work))
			t += step
			work += step
			reexec -= step
		}
		s.work, s.overlapRemain = work, overlap
		if work >= lr.tbase-workEps {
			s.t, s.reexecRemaining = t, reexec
			return true
		}
		if reexec > workEps {
			s.t, s.reexecRemaining = target, reexec
			return false
		}
		// finishReexec: back on the schedule at the resume offset.
		s.md = modeSchedule
		s.reexecRemaining = 0
		s.offset = s.resumeOffset
		if s.offset == 0 {
			s.periodStartWork = work
		}
	}
	if s.md != modeSchedule || t >= target-workEps {
		s.t = target
		return false
	}

	// Schedule. Here the work level is periodStartWork +
	// scheduleWork(offset) up to rounding, so the run moves its position
	// in the period and derives the work from it: pos is target's
	// position from the current period start, k the whole periods it
	// lies ahead and o its offset in that period.
	o0, p0 := s.offset, s.periodStartWork
	pos := o0 + (target - t)
	k := math.Floor(pos * lr.invPeriod)
	o := pos - k*lr.period
	if o < 0 {
		k, o = k-1, o+lr.period
	} else if o >= lr.period {
		k, o = k+1, o-lr.period
	}
	work := p0 + k*lr.periodWork + lr.scheduleWork(o)
	done := work >= lr.tbase-workEps
	if done {
		// The work reaches Tbase by target: the completion instant is the
		// schedule's inverse from the period start, kept within [o0, pos]
		// against rounding.
		need := lr.tbase - p0
		kc := math.Floor(need / lr.periodWork)
		oc := lr.scheduleTime(0, need-kc*lr.periodWork)
		if oc == 0 {
			// Reached at the end of the previous period, which is
			// after its commit (or, at σ = 0, at it).
			kc, oc = kc-1, lr.period
		}
		if kc < k || kc == k && oc < o {
			k, o = kc, oc
		}
		if k < 0 || k == 0 && o < o0 {
			k, o = 0, o0
		}
		work = lr.tbase
	}

	// Commits: one at commitOffset in every period the run passes it,
	// periods j0..j counted from the current one (the scalar completes
	// before committing at the completion instant itself). The first
	// commit closes the open risk windows; the last sets the snapshot.
	j := k
	if o < lr.commitOffset || done && o == lr.commitOffset {
		j--
	}
	j0 := 0.0
	if o0 >= lr.commitOffset {
		j0 = 1
	}
	if j >= j0 {
		tc := t + (j0*lr.period + lr.commitOffset - o0)
		s.snapshotWork = p0 + j*lr.periodWork
		s.everCommitted = true
		s.comp = s.comp[:0]
		if s.riskUntil > tc {
			s.res.RiskTime -= s.riskUntil - tc
			s.riskUntil = tc
		}
	}
	s.work, s.offset, s.periodStartWork = work, o, p0+k*lr.periodWork
	if done {
		s.t = t + (k*lr.period + o - o0)
		return true
	}
	s.t = target
	return false
}

// applyFailureLane is the lane port of engine.applyFailure. It returns
// true when the failure is fatal.
func (lr *LaneRunner) applyFailureLane(s *laneRun, node int) bool {
	res := &s.res
	res.Failures++
	t := s.t

	// --- Risk bookkeeping -------------------------------------------------
	gStart := (node / lr.group) * lr.group
	others := 0
	nodeAt := -1
	comp := s.comp
	for i := 0; i < len(comp); {
		en := comp[i]
		if en.end <= t {
			comp[i] = comp[len(comp)-1]
			comp = comp[:len(comp)-1]
			continue
		}
		if en.node == node {
			nodeAt = i
		} else if en.node >= gStart && en.node < gStart+lr.group {
			others++
		}
		i++
	}
	if others > 0 {
		if others >= lr.group-1 && s.everCommitted {
			s.comp = comp
			res.Fatal = true
			res.FatalTime = t
			return true
		}
		res.FailuresInRisk++
	}
	if nodeAt >= 0 {
		comp[nodeAt].end = t + lr.risk
	} else {
		comp = append(comp, riskEntry{node: node, end: t + lr.risk})
	}
	s.comp = comp

	start := fmax(t, s.riskUntil)
	if end := t + lr.risk; end > start {
		res.RiskTime += end - start
		s.riskUntil = end
	}
	res.ImportanceFatalProb += lr.impFatal

	// --- Rollback ----------------------------------------------------------
	if s.md == modeSchedule {
		switch lr.phases.PhaseOf(s.offset) {
		case 1:
			s.resumeOffset = 0
		case 2:
			if lr.pr.IsTriple() {
				s.resumeOffset = lr.phases.Ckpt1
			} else {
				s.resumeOffset = 0
			}
		default:
			s.resumeOffset = s.offset
		}
	}

	s.work = s.snapshotWork
	reexec := s.periodStartWork + lr.scheduleWork(s.resumeOffset) - s.snapshotWork
	if reexec < 0 {
		reexec = 0
	}
	s.reexecRemaining = reexec

	s.stallRemaining = lr.p.D + lr.p.R
	if lr.pr.BlocksOnFailure() {
		s.stallRemaining += float64(lr.images) * lr.p.R
		s.overlapRemain = 0
	} else {
		s.overlapRemain = float64(lr.images) * lr.theta
	}
	s.md = modeStall
	return false
}

// finishLane is the lane port of engine.run's epilogue.
func (lr *LaneRunner) finishLane(s *laneRun) {
	res := &s.res
	res.Makespan = s.t
	res.WorkDone = math.Min(s.work, lr.tbase)
	if res.Makespan > 0 {
		res.Waste = 1 - res.WorkDone/res.Makespan
	}
	res.LostTime = res.Makespan - lr.faultFreeMakespan(res.WorkDone)
}
