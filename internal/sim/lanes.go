package sim

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/rng"
)

// This file is the lane-batched kernel (DESIGN.md, "Lane kernel"): a
// LaneRunner advances up to `width` independent runs in lockstep over
// structure-of-arrays state — per-lane clocks, accumulated work,
// period offsets, prefetched next-failure times — so the dominant cost
// of a healthy platform, replaying fault-free periods, becomes a
// data-parallel pass over contiguous float64 slices whose per-lane
// dependency chains overlap in the CPU pipeline instead of
// serializing one timeline at a time.
//
// The kernel has two replay modes with two contracts:
//
//   - exact mode (SetExact(true)): lane l with seed s produces a
//     Result bitwise identical to Runner.Run(s) (and, antithetic, to
//     RunAntithetic). Every method is a line-for-line port of
//     engine.go operating on lane-indexed state; the period-replay
//     fast-forward (engine.replayPeriods) is hoisted out of the
//     per-lane walk into a wave pass (waveReplay) whose additions are
//     the exact per-lane operand sequence, only interleaved across
//     lanes for instruction-level parallelism. The antithetic
//     executor (RunAntitheticSeeded) runs in this mode, so the
//     adaptive rounds replay the scalar schedule bit for bit.
//
//   - production mode (the default): the fault-free fast-forward is
//     computed in closed form — k whole periods collapse to two
//     multiply-adds instead of k dependent add chains — and the
//     inter-arrival sampler is the log-free ziggurat. Results then
//     differ from the scalar oracle in accumulated rounding (and in
//     the draw sequence), so the equivalence is statistical, but the
//     path stays fully deterministic: a fixed seed yields fixed bits,
//     so the worker-count-bitwise merge guarantee is untouched.
//
// In both modes failure events are prefetched per lane in batches
// (failure.Merged.FillEvents), consuming the lane's stream in the
// exact per-event order of the scalar path and deferring the logs to
// one pipelined pass. Overdrawn events are discarded at the next
// reset, which is harmless because each run reseeds its stream.
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
// workers (see laneWidth), so that each goroutine still advances
// enough lanes in lockstep for their dependency chains to overlap.
const minLaneWidth = 8

// waveConsts caches one period's additions — the exact operand
// sequence of engine.replayPeriods — so the exact-mode wave cascade
// and tail add the same bits as the scalar walk.
type waveConsts struct {
	c1, seg2, seg3 float64
	wc1, wc2       float64
	triple         bool
}

// advanceLane outcomes.
const (
	laneReached   = iota // timeline reached the advance target
	laneCompleted        // work target reached; the run is done
	laneParked           // scalar fast-forward condition hit; wave pending
)

// LaneRunner executes batches of up to `width` runs of one Batch in
// lockstep. Like Runner it is single-goroutine and allocation-free in
// steady state; create one per worker. It requires the merged
// exponential failure path (Config.Law == nil) — renewal-law batches
// fall back to the scalar Runner.
type LaneRunner struct {
	compiled
	width   int
	workCap float64 // tbase − 2·periodWork, the scalar replay work cap
	zig     bool
	exact   bool
	bufLen  int

	// SoA timeline state, indexed by lane.
	t               []float64
	work            []float64
	snapshotWork    []float64
	periodStartWork []float64
	offset          []float64
	target          []float64 // advance target of a parked lane

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
	us      []float64 // uniform scratch for one refill

	active []int
	parked []int
	keys   []uint64   // exact-mode bulk worklist: packed (periods<<16 | lane) sort keys
	wc     waveConsts // one period's additions, set once per batch

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
	lr.target = make([]float64, width)
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
	lr.active = make([]int, 0, width)
	lr.parked = make([]int, 0, width)
	lr.keys = make([]uint64, 0, width)
	lr.seeds = make([]uint64, width)
	lr.anti = make([]bool, width)
	lr.bind(b)
	return lr, nil
}

// bind points the runner at batch b, which must be on the i.i.d.
// path: every field derived from the compiled configuration is
// recomputed, the modes return to the production defaults and the
// sampler buffer is resized (resliced when its capacity allows). The
// per-run state is rewound by resetLane anyway, so a rebound runner
// produces the same bits as NewLaneRunner on b — which is what lets
// one process-wide pool serve every batch.
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
	// The wave constants — one period's additions — are fixed per batch;
	// computed exactly as engine.replayPeriods derives them so the
	// exact-mode cascade and tail add the same bits as the scalar walk.
	c1 := lr.phases.Ckpt1
	c2 := c1 + lr.phases.Ckpt2
	lr.wc.c1 = c1
	lr.wc.seg2 = c2 - c1
	lr.wc.seg3 = lr.period - c2
	lr.wc.wc1 = lr.exRate * c1
	lr.wc.wc2 = lr.exRate * lr.wc.seg2
	lr.wc.triple = lr.pr.IsTriple()
	for l := range lr.merged {
		lr.merged[l] = *failure.NewMerged(lr.p.N, lr.p.M, &lr.streams[l])
	}
	lr.SetExact(false) // production default; SetExact(true) restores inverse-CDF
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
// 1 (per-event refill, the no-batching diagnostic layer of cmd/bench).
func (lr *LaneRunner) SetSamplerBatch(n int) {
	if n < 1 {
		n = 1
	}
	lr.bufLen = n
	lr.evTime = resize(lr.evTime, lr.width*n)
	lr.evNode = resize(lr.evNode, lr.width*n)
	lr.us = resize(lr.us, n)
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

// SetZiggurat switches the inter-arrival sampler between the
// inverse-CDF path (bitwise identical to the scalar engine) and the
// log-free ziggurat (the production default). Ziggurat results are
// statistically — not bitwise — equivalent, and antithetic pairing
// weakens from exact quantile reflection to layer-and-position
// mirroring, which is why SetExact turns it off. It is exposed so
// cmd/bench can measure the layer in isolation.
func (lr *LaneRunner) SetZiggurat(on bool) { lr.zig = on }

// SetExact selects the replay mode. Exact mode replays fault-free
// periods with the scalar engine's per-period addition sequence (the
// wave pass) and the inverse-CDF sampler, making every lane Result
// bitwise identical to Runner.RunAntithetic — the oracle contract the
// antithetic/adaptive executor depends on for exact reflection.
// Production mode (the default) uses the closed-form fast-forward and
// the ziggurat sampler: statistically equivalent, still fully
// deterministic per seed, and ~2× faster on healthy platforms.
func (lr *LaneRunner) SetExact(on bool) {
	lr.exact = on
	lr.zig = !on
}

// RunBatch executes len(seeds) runs (at most Width) and writes their
// Results to out in seed order. anti selects the reflected-uniform
// failure sample per lane (nil = all plain). In exact mode out[l] is
// bitwise Runner.RunAntithetic(seeds[l], anti[l]); in production mode
// it is statistically equivalent and deterministic per seed.
func (lr *LaneRunner) RunBatch(seeds []uint64, anti []bool, out []Result) {
	n := len(seeds)
	if n > lr.width {
		panic("sim: RunBatch with more seeds than lanes")
	}
	for l := 0; l < n; l++ {
		lr.resetLane(l, seeds[l], anti != nil && anti[l])
	}
	active := lr.active[:0]
	for l := 0; l < n; l++ {
		active = append(active, l)
	}
	for len(active) > 0 {
		parked := lr.parked[:0]
		j := 0
		for _, l := range active {
			if lr.stepLane(l) {
				parked = append(parked, l)
				active[j] = l
				j++
			}
		}
		active = active[:j]
		lr.parked = parked
		if len(parked) > 0 {
			lr.waveReplay()
		}
	}
	lr.active = active
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
	times := lr.evTime[base : base+lr.bufLen]
	nodes := lr.evNode[base : base+lr.bufLen]
	if lr.zig {
		lr.merged[l].FillEventsZiggurat(times, nodes)
	} else {
		lr.merged[l].FillEvents(times, nodes, lr.us)
	}
	lr.evPos[l] = 0
}

// stepLane is the per-lane port of engine.run's loop: it advances lane
// l through failures until the run finishes (completed, fatal, or
// horizon-saturated — reported false) or the lane parks for a replay
// wave (reported true).
func (lr *LaneRunner) stepLane(l int) bool {
	base := l * lr.bufLen
	for {
		evT := lr.evTime[base+lr.evPos[l]]
		target := lr.horizon
		hasEv := evT < lr.horizon
		if hasEv {
			target = evT
		}
		switch lr.advanceLane(l, target) {
		case laneCompleted:
			lr.res[l].Completed = true
			lr.finishLane(l)
			return false
		case laneParked:
			return true
		}
		if !hasEv {
			lr.finishLane(l) // horizon reached (saturated)
			return false
		}
		node := int(lr.evNode[base+lr.evPos[l]])
		lr.evPos[l]++
		if lr.evPos[l] == lr.bufLen {
			lr.refill(l)
		}
		if lr.applyFailureLane(l, node) {
			lr.finishLane(l) // fatal
			return false
		}
	}
}

// advanceLane is the lane port of engine.advanceUntil. Where the
// scalar engine calls replayPeriods, a production lane fast-forwards
// in closed form and an exact lane parks for the wave pass: the guard
// is the scalar condition plus replayPeriods' own first-iteration
// conditions (periodWork > 0, work below the cap, a full period of
// headroom), so at least one period always replays and an unguarded
// lane proceeds stepwise exactly where the scalar walk would.
// The hot per-lane state lives in locals for the whole walk — one load
// per field on entry, one store on exit — so the inner loop works on
// registers instead of bounds-checked slice cells. Every float
// operation is the scalar sequence unchanged; the state is flushed
// before the rare commitLane call (which reads the lane's clock) and at
// every return.
func (lr *LaneRunner) advanceLane(l int, target float64) int {
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
				if lr.exact {
					lr.target[l] = target
					lr.t[l], lr.work[l], lr.offset[l], lr.md[l] = t, work, offset, md
					lr.stallRemaining[l], lr.reexecRemaining[l], lr.overlapRemain[l] = stall, reexec, overlap
					return laneParked
				}
				// Production fast-forward: k whole fault-free periods
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
				return laneCompleted
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
				return laneCompleted
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
	return laneReached
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

// waveReplay (exact mode only: production lanes fast-forward in closed
// form and never park) replays fault-free periods for every parked
// lane in two phases. The bulk phase computes, per lane, a conservative count of
// periods that are certain to replay (the time and work headroom in
// whole periods, minus a margin that dwarfs any floating-point drift)
// and burns them in a register-blocked loop: four lanes' clocks and
// work levels live in locals and advance together, so the four
// add chains — each as latency-bound as the scalar walk's — overlap
// in the CPU pipeline. The additions are the exact per-lane operand
// sequence of engine.replayPeriods (snapshot bookkeeping deferred:
// only the final snapshot/period-start values are observable, and the
// tail phase writes them), so the bits are unchanged. The tail phase
// then runs the scalar replay loop verbatim per lane — the margin
// guarantees it executes at least once, so the snapshot bookkeeping
// and the exact exit condition are the scalar walk's — and applies
// the replay epilogue (risk set cleared, everCommitted, offset 0)
// before the lane resumes stepwise.
func (lr *LaneRunner) waveReplay() {
	c1, seg2, seg3 := lr.wc.c1, lr.wc.seg2, lr.wc.seg3
	wc1, wc2 := lr.wc.wc1, lr.wc.wc2
	triple := lr.wc.triple

	// Bulk phase: certain whole periods, interleaved four lanes wide.
	// bulkMargin periods are left for the tail on both the time and the
	// work bound — far beyond the accumulated rounding drift of any
	// pass (capped at 2²⁴ periods, drift stays below a fraction of one
	// period), so the bulk count never overshoots the scalar loop's.
	const bulkMargin = 3
	const bulkCap = 1 << 24
	parked := lr.parked
	keys := lr.keys[:0]
	for _, l := range parked {
		kt := (lr.target[l] - lr.t[l]) * lr.invPeriod
		kw := (lr.workCap - lr.work[l]) * lr.invPeriodWork
		k := int64(fmin(kt, kw)) - bulkMargin
		if k > bulkCap {
			k = bulkCap
		}
		if k > 0 {
			keys = append(keys, uint64(k)<<16|uint64(l))
		}
	}
	// One descending sort on the packed (count, lane) keys groups lanes
	// of similar depth, so a group wastes few dummy iterations on its
	// shallower members.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] > keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	lr.waveBulkGo(keys)

	// Tail phase: the scalar replay loop, verbatim, per lane.
	limit := lr.period + workEps
	for _, l := range parked {
		t, work := lr.t[l], lr.work[l]
		target := lr.target[l]
		snap := lr.snapshotWork[l]
		for target-t >= limit && work < lr.workCap {
			w0 := work
			if triple {
				work += wc1
			}
			t += c1
			t += seg2
			work += wc2
			snap = w0
			t += seg3
			work += seg3
		}
		lr.t[l], lr.work[l] = t, work
		lr.snapshotWork[l] = snap
		lr.periodStartWork[l] = work
		lr.comp[l] = lr.comp[l][:0]
		lr.everCommitted[l] = true
		lr.offset[l] = 0
	}
}

// waveBulkGo is the exact-mode bulk cascade: groups of four lanes
// advance in manually interleaved locals, so the four add chains
// overlap in the pipeline; a lane whose count is exhausted writes back
// at its bound while its slot keeps running as a discarded dummy.
func (lr *LaneRunner) waveBulkGo(keys []uint64) {
	c1, seg2, seg3 := lr.wc.c1, lr.wc.seg2, lr.wc.seg3
	wc1, wc2 := lr.wc.wc1, lr.wc.wc2
	triple := lr.wc.triple
	for lo := 0; lo < len(keys); lo += 4 {
		g := keys[lo:min(lo+4, len(keys))]
		lA := int(g[0] & 0xFFFF)
		lB, lC, lD := -1, -1, -1
		tA, wA := lr.t[lA], lr.work[lA]
		tB, wB := tA, wA
		tC, wC := tA, wA
		tD, wD := tA, wA
		kA := int64(g[0] >> 16)
		kB, kC, kD := int64(0), int64(0), int64(0)
		if len(g) > 1 {
			lB = int(g[1] & 0xFFFF)
			tB, wB = lr.t[lB], lr.work[lB]
			kB = int64(g[1] >> 16)
		}
		if len(g) > 2 {
			lC = int(g[2] & 0xFFFF)
			tC, wC = lr.t[lC], lr.work[lC]
			kC = int64(g[2] >> 16)
		}
		if len(g) > 3 {
			lD = int(g[3] & 0xFFFF)
			tD, wD = lr.t[lD], lr.work[lD]
			kD = int64(g[3] >> 16)
		}
		for i := int64(0); i < kA; i++ {
			if i == kD && lD >= 0 {
				lr.t[lD], lr.work[lD] = tD, wD
				lD = -1
			}
			if i == kC && lC >= 0 {
				lr.t[lC], lr.work[lC] = tC, wC
				lC = -1
			}
			if i == kB && lB >= 0 {
				lr.t[lB], lr.work[lB] = tB, wB
				lB = -1
			}
			if triple {
				wA += wc1
				wB += wc1
				wC += wc1
				wD += wc1
			}
			tA += c1
			tB += c1
			tC += c1
			tD += c1
			tA += seg2
			tB += seg2
			tC += seg2
			tD += seg2
			wA += wc2
			wB += wc2
			wC += wc2
			wD += wc2
			tA += seg3
			tB += seg3
			tC += seg3
			tD += seg3
			wA += seg3
			wB += seg3
			wC += seg3
			wD += seg3
		}
		lr.t[lA], lr.work[lA] = tA, wA
		if lD >= 0 {
			lr.t[lD], lr.work[lD] = tD, wD
		}
		if lC >= 0 {
			lr.t[lC], lr.work[lC] = tC, wC
		}
		if lB >= 0 {
			lr.t[lB], lr.work[lB] = tB, wB
		}
	}
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
