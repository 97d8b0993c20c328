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
// lane-indexed state, with two substitutions. A lane moves from one
// failure to the next in closed form: on the schedule, advanceLane
// does period arithmetic on the lane's position in its period (whole
// periods, the landing offset, the commits passed) where the scalar
// engine walks segment by segment, and it resolves completion with
// the schedule's within-period inverse. And the inter-arrival times
// come from the log-free ziggurat sampler (rng.Stream.ExpZiggurat)
// instead of the inverse CDF. Results therefore differ from the scalar
// Runner in rounding (FuzzLaneAdvance bounds one advance at 1e-9 of the
// clock) and in the draw sequence: the equivalence is statistical (3σ
// tests on every protocol family, plain and reflected). The path stays
// fully deterministic: a fixed seed yields fixed bits, so the chunked
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
	width  int
	bufLen int

	// commitOffset is the period offset of the snapshot commit: the end
	// of phase 1 for the triple protocols and of phase 2 (at most the
	// period) for the double ones. invPeriod is 1/period, for the
	// schedule's period count (corrected against the period either way).
	commitOffset float64
	invPeriod    float64

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
	lr.invPeriod = 1 / lr.period
	lr.commitOffset = lr.phases.Ckpt1
	if !lr.pr.IsTriple() {
		lr.commitOffset = fmin(lr.phases.Ckpt1+lr.phases.Ckpt2, lr.period)
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

// advanceLane is the lane port of engine.advanceUntil: it advances
// lane l to target, or until the work reaches Tbase, and reports
// whether the run completed. The modes only ever follow one another in
// the order stall → re-execution → schedule, so each is one
// straight-line block that either stops the lane or hands it to the
// next. Stall and re-execution take the scalar walk's steps, bit for
// bit: at most one per rate, the reduced rate lasting while the buddy
// images are re-received. The schedule is period arithmetic instead of
// a segment walk (DESIGN.md, "Lane kernel").
func (lr *LaneRunner) advanceLane(l int, target float64) bool {
	t := lr.t[l]
	if lr.md[l] == modeStall && t < target-workEps {
		step := fmin(target-t, lr.stallRemaining[l])
		t += step
		lr.stallRemaining[l] -= step
		if lr.stallRemaining[l] <= workEps {
			lr.stallRemaining[l] = 0
			lr.md[l] = modeReexec
		}
	}
	if lr.md[l] == modeReexec && t < target-workEps {
		work, reexec, overlap := lr.work[l], lr.reexecRemaining[l], lr.overlapRemain[l]
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
		lr.work[l], lr.overlapRemain[l] = work, overlap
		if work >= lr.tbase-workEps {
			lr.t[l], lr.reexecRemaining[l] = t, reexec
			return true
		}
		if reexec > workEps {
			lr.t[l], lr.reexecRemaining[l] = target, reexec
			return false
		}
		// finishReexec: back on the schedule at the resume offset.
		lr.md[l] = modeSchedule
		lr.reexecRemaining[l] = 0
		lr.offset[l] = lr.resumeOffset[l]
		if lr.offset[l] == 0 {
			lr.periodStartWork[l] = work
		}
	}
	if lr.md[l] != modeSchedule || t >= target-workEps {
		lr.t[l] = target
		return false
	}

	// Schedule. Here the work level is periodStartWork +
	// scheduleWork(offset) up to rounding, so the lane moves its position
	// in the period and derives the work from it: s is target's position
	// from the current period start, k the whole periods it lies ahead
	// and o its offset in that period.
	o0, p0 := lr.offset[l], lr.periodStartWork[l]
	s := o0 + (target - t)
	k := math.Floor(s * lr.invPeriod)
	o := s - k*lr.period
	if o < 0 {
		k, o = k-1, o+lr.period
	} else if o >= lr.period {
		k, o = k+1, o-lr.period
	}
	work := p0 + k*lr.periodWork + lr.scheduleWork(o)
	done := work >= lr.tbase-workEps
	if done {
		// The work reaches Tbase by target: the completion instant is the
		// schedule's inverse from the period start, kept within [o0, s]
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

	// Commits: one at commitOffset in every period the lane passes it,
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
		lr.snapshotWork[l] = p0 + j*lr.periodWork
		lr.everCommitted[l] = true
		lr.comp[l] = lr.comp[l][:0]
		if lr.riskUntil[l] > tc {
			lr.res[l].RiskTime -= lr.riskUntil[l] - tc
			lr.riskUntil[l] = tc
		}
	}
	lr.work[l], lr.offset[l], lr.periodStartWork[l] = work, o, p0+k*lr.periodWork
	if done {
		lr.t[l] = t + (k*lr.period + o - o0)
		return true
	}
	lr.t[l] = target
	return false
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
