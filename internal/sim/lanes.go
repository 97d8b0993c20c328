package sim

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/rng"
)

// This file is the lane-batched kernel (DESIGN.md, "Lane kernel"): a
// LaneRunner executes up to `width` independent runs of one batch over
// structure-of-arrays state — per-lane clocks, accumulated work,
// period offsets, prefetched next-failure times — running the lanes to
// completion one after another. What the batch buys is setup paid
// once per group (one bind, one pooled runner) and failure events
// sampled in per-lane batches.
//
// The kernel has one mode. Every method is a port of engine.go onto
// lane-indexed state, with two substitutions: a fault-free stretch of
// k whole periods is fast-forwarded in closed form (two multiply-adds
// instead of the scalar walk's k dependent add chains), and the
// inter-arrival times come from the log-free ziggurat sampler
// (rng.Stream.ExpZiggurat) instead of the inverse CDF. Results
// therefore differ from the scalar Runner in accumulated rounding and
// in the draw sequence: the equivalence is statistical (3σ tests on
// every protocol family, plain and reflected). The path stays fully
// deterministic: a fixed seed yields fixed bits, so the chunked
// aggregation's worker-count independence is untouched. The plain
// (RunManySeeded) and the antithetic (RunAntitheticSeeded) schedules
// both run here; a reflected lane draws the ziggurat on the
// complemented raw bits, which leaves its distribution exactly Exp(λ).
//
// Failure events are prefetched per lane in batches
// (failure.Merged.FillEventsZiggurat). Overdrawn events are discarded
// at the next reset, which is harmless because each run reseeds its
// stream.
//
// The tail is per-lane: runs finishing at different makespans leave
// the active set individually, so a batch degrades gracefully to
// scalar-equivalent work when only one lane remains.

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
// lane after another. Like Runner it is single-goroutine and allocation-free in
// steady state; create one per worker. It requires the merged
// exponential failure path (Config.Law == nil) — renewal-law batches
// fall back to the scalar Runner.
type LaneRunner struct {
	compiled
	width   int
	workCap float64 // tbase − 2·periodWork, the scalar replay work cap
	bufLen  int

	// SoA timeline state, indexed by lane.
	t               []float64
	work            []float64
	snapshotWork    []float64
	periodStartWork []float64
	offset          []float64

	// Per-lane stall/re-execution and risk state.
	md              []mode
	stallRemaining  []float64
	reexecRemaining []float64
	overlapRemain   []float64
	resumeOffset    []float64
	riskUntil       []float64
	everCommitted   []bool
	comp            [][]riskEntry
	res             []Result

	// Failure sampling: one content-seeded stream and merged process
	// per lane, refilling a per-lane slice of the shared event buffers.
	streams []rng.Stream
	merged  []failure.Merged
	evTime  []float64 // width × bufLen, lane l owns [l·bufLen, (l+1)·bufLen)
	evNode  []int32
	evPos   []int

	// Reciprocals of the period spans, precomputed for the replay
	// period-count candidates (a multiply instead of a divide; the
	// candidate is corrected against the exact bounds either way).
	invPeriod     float64
	invPeriodWork float64

	// Batch-executor scratch (aggregateLanes), kept with the runner so
	// that a pooled runner serves a batch without allocating: one
	// group's seeds and reflection flags and, on the runner leading a
	// call, the chunk's Result buffer and the call's other runners.
	seeds []uint64
	anti  []bool
	buf   []Result
	crew  []*LaneRunner
}

// NewLaneRunner returns a lane-batched runner of the given width.
// Batches with a renewal failure law have no lane path (each lane
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
	lr.t = make([]float64, width)
	lr.work = make([]float64, width)
	lr.snapshotWork = make([]float64, width)
	lr.periodStartWork = make([]float64, width)
	lr.offset = make([]float64, width)
	lr.md = make([]mode, width)
	lr.stallRemaining = make([]float64, width)
	lr.reexecRemaining = make([]float64, width)
	lr.overlapRemain = make([]float64, width)
	lr.resumeOffset = make([]float64, width)
	lr.riskUntil = make([]float64, width)
	lr.everCommitted = make([]bool, width)
	lr.comp = make([][]riskEntry, width)
	lr.res = make([]Result, width)
	lr.streams = make([]rng.Stream, width)
	lr.merged = make([]failure.Merged, width)
	for l := range lr.comp {
		lr.comp[l] = make([]riskEntry, 0, 16)
	}
	lr.evPos = make([]int, width)
	lr.seeds = make([]uint64, width)
	lr.anti = make([]bool, width)
	lr.bind(b)
	return lr, nil
}

// bind points the runner at batch b, which must be on the i.i.d.
// path: every field derived from the compiled configuration is
// recomputed and the sampler buffer is resized (resliced when its
// capacity allows). The per-run state is rewound by resetLane anyway,
// so a rebound runner produces the same bits as NewLaneRunner on b —
// which is what lets one process-wide pool serve every batch.
func (lr *LaneRunner) bind(b *Batch) {
	lr.compiled = b.c
	lr.workCap = lr.tbase - 2*lr.periodWork
	lr.invPeriod, lr.invPeriodWork = 0, 0
	if lr.period > 0 {
		lr.invPeriod = 1 / lr.period
	}
	if lr.periodWork > 0 {
		lr.invPeriodWork = 1 / lr.periodWork
	}
	for l := range lr.merged {
		lr.merged[l] = *failure.NewMerged(lr.p.N, lr.p.M, &lr.streams[l])
	}
	lr.SetSamplerBatch(defaultSamplerBatch(lr.tbase, lr.p.M))
}

// defaultSamplerBatch sizes the per-lane event prefetch: a quarter of
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

// SetSamplerBatch resizes the per-lane failure-event prefetch buffer.
// It must be called between batches, not mid-run; n < 1 is clamped to
// 1 (per-event refill).
func (lr *LaneRunner) SetSamplerBatch(n int) {
	if n < 1 {
		n = 1
	}
	lr.bufLen = n
	lr.evTime = resize(lr.evTime, lr.width*n)
	lr.evNode = resize(lr.evNode, lr.width*n)
}

// resize returns s with length n, reusing its backing array when the
// capacity allows. The contents are stale: the sampler buffers are
// refilled before they are read.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// RunBatch executes len(seeds) runs (at most Width) and writes their
// Results to out in seed order. anti selects the reflected-uniform
// failure sample per lane (nil = all plain). out[l] is statistically
// equivalent to Runner.RunAntithetic(seeds[l], anti[l]) and a pure
// function of (seeds[l], anti[l]).
func (lr *LaneRunner) RunBatch(seeds []uint64, anti []bool, out []Result) {
	n := len(seeds)
	if n > lr.width {
		panic("sim: RunBatch with more seeds than lanes")
	}
	for l := 0; l < n; l++ {
		lr.resetLane(l, seeds[l], anti != nil && anti[l])
	}
	for l := 0; l < n; l++ {
		lr.stepLane(l)
	}
	copy(out, lr.res[:n])
}

// resetLane rewinds lane l for a fresh run, mirroring engine.reset:
// the reflection mode is applied before reseeding, so the whole
// failure sample of the run is plain or antithetic as one.
func (lr *LaneRunner) resetLane(l int, seed uint64, antithetic bool) {
	lr.t[l] = 0
	lr.work[l] = 0
	lr.snapshotWork[l] = 0
	lr.periodStartWork[l] = 0
	lr.md[l] = modeSchedule
	lr.offset[l] = 0
	lr.stallRemaining[l] = 0
	lr.reexecRemaining[l] = 0
	lr.overlapRemain[l] = 0
	lr.resumeOffset[l] = 0
	lr.comp[l] = lr.comp[l][:0]
	lr.riskUntil[l] = 0
	lr.everCommitted[l] = false
	lr.res[l] = Result{Period: lr.period}
	lr.streams[l].SetReflected(antithetic)
	lr.merged[l].Reseed(seed)
	lr.refill(l)
}

// refill replenishes lane l's prefetched failure events.
func (lr *LaneRunner) refill(l int) {
	base := l * lr.bufLen
	lr.merged[l].FillEventsZiggurat(lr.evTime[base:base+lr.bufLen], lr.evNode[base:base+lr.bufLen])
	lr.evPos[l] = 0
}

// stepLane is the per-lane port of engine.run's loop: it advances lane
// l through failures until the run finishes (completed, fatal, or
// horizon-saturated).
func (lr *LaneRunner) stepLane(l int) {
	base := l * lr.bufLen
	for {
		evT := lr.evTime[base+lr.evPos[l]]
		target := lr.horizon
		hasEv := evT < lr.horizon
		if hasEv {
			target = evT
		}
		if lr.advanceLane(l, target) {
			lr.res[l].Completed = true
			lr.finishLane(l)
			return
		}
		if !hasEv {
			lr.finishLane(l) // horizon reached (saturated)
			return
		}
		node := int(lr.evNode[base+lr.evPos[l]])
		lr.evPos[l]++
		if lr.evPos[l] == lr.bufLen {
			lr.refill(l)
		}
		if lr.applyFailureLane(l, node) {
			lr.finishLane(l) // fatal
			return
		}
	}
}

// advanceLane is the lane port of engine.advanceUntil. Where the
// scalar engine calls replayPeriods, a lane fast-forwards in closed
// form: the guard is the scalar condition plus replayPeriods' own
// first-iteration conditions (periodWork > 0, work below the cap, a
// full period of headroom), so at least one period always replays and
// an unguarded lane proceeds stepwise exactly where the scalar walk
// would. It reports whether the work target was reached (the run is
// done) before the timeline reached target.
// The hot per-lane state lives in locals for the whole walk — one load
// per field on entry, one store on exit — so the inner loop works on
// registers instead of bounds-checked slice cells. Outside the
// fast-forward every float operation is the scalar sequence unchanged;
// the state is flushed before the rare commitLane call (which reads
// the lane's clock) and at every return.
func (lr *LaneRunner) advanceLane(l int, target float64) bool {
	var (
		t       = lr.t[l]
		work    = lr.work[l]
		offset  = lr.offset[l]
		md      = lr.md[l]
		stall   = lr.stallRemaining[l]
		reexec  = lr.reexecRemaining[l]
		overlap = lr.overlapRemain[l]
		triple  = lr.pr.IsTriple()
	)
	for t < target-workEps {
		dt := target - t
		switch md {
		case modeSchedule:
			if offset == 0 && lr.riskUntil[l] <= t && dt >= lr.period+workEps &&
				lr.periodWork > 0 && work < lr.workCap {
				// Fast-forward: k whole fault-free periods
				// collapse to closed form. The reciprocal candidate is
				// corrected against the exact monotone bounds, so k is a
				// pure deterministic function of (t, work, target) — the
				// guard above is canReplay(0), so k ≥ 1 always holds.
				t0, w0 := t, work
				// The time bound leaves one full period of headroom
				// (canReplay needs target−tj ≥ period), so its candidate is
				// the quotient minus one; starting there, the corrections
				// usually terminate on their first probe each.
				k := int64(fmin((target-t0)*lr.invPeriod-1, (lr.workCap-w0)*lr.invPeriodWork))
				for k > 1 && !lr.canReplay(t0, w0, target, k-1) {
					k--
				}
				if k < 1 {
					k = 1
				}
				for lr.canReplay(t0, w0, target, k) {
					k++
				}
				t = t0 + float64(k)*lr.period
				work = w0 + float64(k)*lr.periodWork
				lr.snapshotWork[l] = w0 + float64(k-1)*lr.periodWork
				lr.periodStartWork[l] = work
				lr.comp[l] = lr.comp[l][:0]
				lr.everCommitted[l] = true
				continue
			}
			idx, rate, segEnd := lr.segment(offset)
			step := fmin(dt, segEnd-offset)
			// The completion clamp can only bind within the last period of
			// work (need < step requires tbase − work < rate·step ≤ one
			// period's work); the cheap pre-filter skips the division —
			// ~15 cycles on the critical path of every segment step —
			// everywhere else, with a full period of slack over rounding.
			if rate > 0 && work+rate*step >= lr.tbase-lr.period {
				if need := (lr.tbase - work) / rate; need < step {
					step = need
				}
			}
			t += step
			offset += step
			work += rate * step
			if work >= lr.tbase-workEps {
				lr.t[l], lr.work[l], lr.offset[l], lr.md[l] = t, work, offset, md
				lr.stallRemaining[l], lr.reexecRemaining[l], lr.overlapRemain[l] = stall, reexec, overlap
				return true
			}
			if offset >= segEnd-workEps {
				// crossBoundaryLane, on the cached state.
				switch idx {
				case 1:
					if triple {
						lr.t[l] = t
						lr.commitLane(l)
					}
					offset = segEnd
				case 2:
					if !triple {
						lr.t[l] = t
						lr.commitLane(l)
					}
					offset = segEnd
				default:
					lr.periodStartWork[l] = work
					offset = 0
				}
			}
		case modeStall:
			step := fmin(dt, stall)
			t += step
			stall -= step
			if stall <= workEps {
				stall = 0
				md = modeReexec
			}
		case modeReexec:
			rate := 1.0
			limit := dt
			if overlap > 0 {
				rate = lr.exRate
				limit = fmin(limit, overlap)
			}
			if reexec <= workEps {
				// finishReexecLane, on the cached state.
				md = modeSchedule
				reexec = 0
				offset = lr.resumeOffset[l]
				if offset == 0 {
					lr.periodStartWork[l] = work
				}
				continue
			}
			step := limit
			if rate == 1 {
				// x/1.0 is exactly x: the common full-speed re-execution
				// path skips the division bitwise-identically.
				if reexec < step {
					step = reexec
				}
			} else if rate > 0 {
				if need := reexec / rate; need < step {
					step = need
				}
			}
			if rate > 0 && work+rate*step >= lr.tbase-lr.period {
				if need := (lr.tbase - work) / rate; need < step {
					step = need
				}
			}
			t += step
			work += rate * step
			reexec -= rate * step
			if overlap > 0 {
				overlap -= step
				if overlap < workEps {
					overlap = 0
				}
			}
			if work >= lr.tbase-workEps {
				lr.t[l], lr.work[l], lr.offset[l], lr.md[l] = t, work, offset, md
				lr.stallRemaining[l], lr.reexecRemaining[l], lr.overlapRemain[l] = stall, reexec, overlap
				return true
			}
			if reexec <= workEps {
				md = modeSchedule
				reexec = 0
				offset = lr.resumeOffset[l]
				if offset == 0 {
					lr.periodStartWork[l] = work
				}
			}
		}
	}
	t = target
	lr.t[l], lr.work[l], lr.offset[l], lr.md[l] = t, work, offset, md
	lr.stallRemaining[l], lr.reexecRemaining[l], lr.overlapRemain[l] = stall, reexec, overlap
	return false
}

// canReplay reports whether the closed-form fast-forward may replay
// period j+1: after j whole periods from (t0, w0), a full period of
// time headroom remains and the work cap is unreached. Both bounds are
// monotone in j (exact integer-to-float conversion, monotone multiply
// and add), so the count correction converges from either side.
func (lr *LaneRunner) canReplay(t0, w0, target float64, j int64) bool {
	tj := t0 + float64(j)*lr.period
	wj := w0 + float64(j)*lr.periodWork
	return target-tj >= lr.period+workEps && wj < lr.workCap
}

// commitLane is the lane port of engine.commit (lanes never carry a
// commit observer); advanceLane flushes the lane clock before calling.
func (lr *LaneRunner) commitLane(l int) {
	lr.snapshotWork[l] = lr.periodStartWork[l]
	lr.everCommitted[l] = true
	lr.comp[l] = lr.comp[l][:0]
	if lr.riskUntil[l] > lr.t[l] {
		lr.res[l].RiskTime -= lr.riskUntil[l] - lr.t[l]
		lr.riskUntil[l] = lr.t[l]
	}
}

// applyFailureLane is the lane port of engine.applyFailure. It returns
// true when the failure is fatal.
func (lr *LaneRunner) applyFailureLane(l, node int) bool {
	res := &lr.res[l]
	res.Failures++
	t := lr.t[l]

	// --- Risk bookkeeping -------------------------------------------------
	gStart := (node / lr.group) * lr.group
	others := 0
	nodeAt := -1
	comp := lr.comp[l]
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
		if others >= lr.group-1 && lr.everCommitted[l] {
			lr.comp[l] = comp
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
	lr.comp[l] = comp

	start := fmax(t, lr.riskUntil[l])
	if end := t + lr.risk; end > start {
		res.RiskTime += end - start
		lr.riskUntil[l] = end
	}
	res.ImportanceFatalProb += lr.impFatal

	// --- Rollback ----------------------------------------------------------
	if lr.md[l] == modeSchedule {
		switch lr.phases.PhaseOf(lr.offset[l]) {
		case 1:
			lr.resumeOffset[l] = 0
		case 2:
			if lr.pr.IsTriple() {
				lr.resumeOffset[l] = lr.phases.Ckpt1
			} else {
				lr.resumeOffset[l] = 0
			}
		default:
			lr.resumeOffset[l] = lr.offset[l]
		}
	}

	lr.work[l] = lr.snapshotWork[l]
	reexec := lr.periodStartWork[l] + lr.scheduleWork(lr.resumeOffset[l]) - lr.snapshotWork[l]
	if reexec < 0 {
		reexec = 0
	}
	lr.reexecRemaining[l] = reexec

	lr.stallRemaining[l] = lr.p.D + lr.p.R
	if lr.pr.BlocksOnFailure() {
		lr.stallRemaining[l] += float64(lr.images) * lr.p.R
		lr.overlapRemain[l] = 0
	} else {
		lr.overlapRemain[l] = float64(lr.images) * lr.theta
	}
	lr.md[l] = modeStall
	return false
}

// finishLane is the lane port of engine.run's epilogue.
func (lr *LaneRunner) finishLane(l int) {
	res := &lr.res[l]
	res.Makespan = lr.t[l]
	res.WorkDone = math.Min(lr.work[l], lr.tbase)
	if res.Makespan > 0 {
		res.Waste = 1 - res.WorkDone/res.Makespan
	}
	res.LostTime = res.Makespan - lr.faultFreeMakespan(res.WorkDone)
}
