package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// laneState is the per-run state advanceLane reads and writes. open is
// the number of open risk entries (a commit clears them all).
type laneState struct {
	md                                             mode
	t, work, offset, periodStartWork, snapshotWork float64
	stall, reexec, overlap, resumeOffset           float64
	riskUntil, riskTime                            float64
	everCommitted                                  bool
	open                                           int
}

// scalarAdvance runs engine.advanceUntil from s to target on a fresh
// Runner of b, with one open risk entry.
func scalarAdvance(b *Batch, s laneState, target float64) (bool, laneState) {
	e := &b.NewRunner().e
	e.md, e.t, e.work, e.offset = s.md, s.t, s.work, s.offset
	e.periodStartWork, e.snapshotWork = s.periodStartWork, s.snapshotWork
	e.stallRemaining, e.reexecRemaining, e.overlapRemain = s.stall, s.reexec, s.overlap
	e.resumeOffset, e.riskUntil, e.res.RiskTime = s.resumeOffset, s.riskUntil, s.riskTime
	e.everCommitted = s.everCommitted
	e.comp = append(e.comp[:0], riskEntry{node: 0, end: s.t + 1})
	done := e.advanceUntil(target)
	return done, laneState{
		md: e.md, t: e.t, work: e.work, offset: e.offset,
		periodStartWork: e.periodStartWork, snapshotWork: e.snapshotWork,
		stall: e.stallRemaining, reexec: e.reexecRemaining, overlap: e.overlapRemain,
		resumeOffset: e.resumeOffset, riskUntil: e.riskUntil, riskTime: e.res.RiskTime,
		everCommitted: e.everCommitted, open: len(e.comp),
	}
}

// laneAdvance runs advanceLane from s to target on a fresh run record
// of a one-lane runner of b, with one open risk entry.
func laneAdvance(b *Batch, s laneState, target float64) (bool, laneState) {
	lr, err := b.NewLaneRunner(1)
	if err != nil {
		panic(err)
	}
	r := laneRun{md: s.md, t: s.t, work: s.work, offset: s.offset}
	r.periodStartWork, r.snapshotWork = s.periodStartWork, s.snapshotWork
	r.stallRemaining, r.reexecRemaining, r.overlapRemain = s.stall, s.reexec, s.overlap
	r.resumeOffset, r.riskUntil, r.res.RiskTime = s.resumeOffset, s.riskUntil, s.riskTime
	r.everCommitted = s.everCommitted
	r.comp = append(lr.comp[:0], riskEntry{node: 0, end: s.t + 1})
	done := lr.advanceLane(&r, target)
	return done, laneState{
		md: r.md, t: r.t, work: r.work, offset: r.offset,
		periodStartWork: r.periodStartWork, snapshotWork: r.snapshotWork,
		stall: r.stallRemaining, reexec: r.reexecRemaining, overlap: r.overlapRemain,
		resumeOffset: r.resumeOffset, riskUntil: r.riskUntil, riskTime: r.res.RiskTime,
		everCommitted: r.everCommitted, open: len(r.comp),
	}
}

// advanceDiff describes how two advances differ, or returns "" when
// they agree: equal completion flag, mode and commit state (everCommitted
// and the open risk entries), and every float within 1e-9 of the larger
// of the two values and scale (the clock's magnitude, since every
// quantity here is built from clock differences), plus slack. The
// offset and period start are compared only on runs that did not
// complete: at completion the rest of the period is never read.
func advanceDiff(da bool, a laneState, db bool, b laneState, scale, slack float64) string {
	if da != db || a.md != b.md || a.everCommitted != b.everCommitted || a.open != b.open {
		return fmt.Sprintf("done %v/%v, mode %v/%v, committed %v/%v, open risk entries %d/%d",
			da, db, a.md, b.md, a.everCommitted, b.everCommitted, a.open, b.open)
	}
	fields := []struct {
		name string
		x, y float64
	}{
		{"clock", a.t, b.t}, {"work", a.work, b.work}, {"snapshot", a.snapshotWork, b.snapshotWork},
		{"RiskTime", a.riskTime, b.riskTime}, {"riskUntil", a.riskUntil, b.riskUntil},
		{"stall", a.stall, b.stall}, {"reexec", a.reexec, b.reexec}, {"overlap", a.overlap, b.overlap},
	}
	if !da {
		fields = append(fields, []struct {
			name string
			x, y float64
		}{{"offset", a.offset, b.offset}, {"period start", a.periodStartWork, b.periodStartWork}}...)
	}
	for _, f := range fields {
		if d := math.Abs(f.x - f.y); !(d <= 1e-9*math.Max(math.Max(math.Abs(f.x), math.Abs(f.y)), scale)+slack) {
			return fmt.Sprintf("%s %v vs %v", f.name, f.x, f.y)
		}
	}
	return ""
}

// checkLaneAdvance advances s to target on both kernels and fails t
// unless they agree (advanceDiff). A target within tieWindow of a
// decision — a segment boundary, the end of the stall or of the
// re-execution, the completion instant — is a tie: the lane may take
// either side, so it must agree with the scalar advance to target−δ or
// to target+δ instead. It reports whether the target was a tie.
func checkLaneAdvance(t testing.TB, b *Batch, s laneState, target float64) bool {
	t.Helper()
	dl, lane := laneAdvance(b, s, target)
	ds, scalar := scalarAdvance(b, s, target)
	scale := math.Max(math.Abs(target), 1)
	diff := advanceDiff(dl, lane, ds, scalar, scale, 0)
	delta := tieWindow(&b.c, s.t, target)
	dLo, lo := scalarAdvance(b, s, target-delta)
	dHi, hi := scalarAdvance(b, s, target+delta)
	tie := advanceDiff(dLo, lo, dHi, hi, scale, 2*delta) != ""
	if diff != "" && (!tie || advanceDiff(dl, lane, dLo, lo, scale, 2*delta) != "" &&
		advanceDiff(dl, lane, dHi, hi, scale, 2*delta) != "") {
		t.Fatalf("%v %+v from %+v to target %v (tie %v, δ %v):\nlane   %v %+v\nscalar %v %+v\n%s",
			b.c.pr, b.c.phases, s, target, tie, delta, dl, lane, ds, scalar, diff)
	}
	return tie
}

// tieWindow is δ: 2·workEps, where the scalar walk and the period
// arithmetic may decide a boundary differently, plus the rounding the
// scalar walk's clock accumulates over the periods between t and target
// (a few ulps of the clock per segment).
func tieWindow(c *compiled, t, target float64) float64 {
	x := math.Max(math.Abs(target), c.tbase)
	ulp := math.Nextafter(x, math.Inf(1)) - x
	periods := math.Max(target-t, 0) / c.period
	return 2*workEps + 8*(periods+2)*ulp
}

// laneAdvanceConfigs are the batches the advance tests draw from: every
// protocol family, φ at 0, mid-range and R (where the exchange does no
// work, as the blocking protocol's does at every φ), a σ = 0 period
// whose phase 3 is empty, the long-horizon high-pressure point and a
// tight horizon.
func laneAdvanceConfigs() []Config {
	p := scenario.Base().Params
	var cfgs []Config
	for _, pr := range core.Protocols {
		cfgs = append(cfgs, Config{Protocol: pr, Params: p.WithMTBF(1800), Phi: 0.5 * p.R, Tbase: 2e4})
	}
	cfgs = append(cfgs,
		Config{Protocol: core.DoubleNBL, Params: p.WithMTBF(1800), Phi: 0, Tbase: 2e4},
		Config{Protocol: core.TripleNBL, Params: p.WithMTBF(1800), Phi: p.R, Tbase: 2e4},
		Config{Protocol: core.DoubleNBL, Params: p.WithMTBF(600), Phi: p.R, Tbase: 1e5},
		Config{Protocol: core.DoubleBoF, Params: p.WithMTBF(300), Phi: p.R, Tbase: 1e4, MaxSimTime: 1.2e4},
	)
	for _, pr := range []core.Protocol{core.DoubleNBL, core.TripleBoF} {
		cfgs = append(cfgs, Config{Protocol: pr, Params: p.WithMTBF(1800), Phi: 0.5 * p.R, Tbase: 2e4,
			Period: core.MinPeriod(pr, p, 0.5*p.R)})
	}
	return cfgs
}

func compileAll(tb testing.TB, cfgs []Config) []*Batch {
	tb.Helper()
	bs := make([]*Batch, len(cfgs))
	for i, cfg := range cfgs {
		b, err := Compile(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		bs[i] = b
	}
	return bs
}

// frac maps any float into [0, 1): its fractional magnitude, 0 for NaN
// and ±Inf.
func frac(x float64) float64 {
	x = math.Abs(x)
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x - math.Floor(x)
}

// Aims of a fuzzed target: free, or on a decision (plus a nudge).
const (
	aimFree = iota
	aimCommit
	aimPhase1
	aimPeriodEnd
	aimModeEnd // end of the stall, or of a full-speed re-execution
	aimCompletion
	aimHorizon
	aims
)

// fuzzLaneState builds a valid lane state and target from fuzz input.
// The clock and the span are magnitudes capped at 10⁷; the other float
// inputs act through their fractional part. In schedule mode the work
// level is periodStartWork + scheduleWork(offset), as it is on every
// path into the schedule; a re-execution resumes at offset 0, at the
// end of phase 1 (the triple protocols' phase-2 rollback) or in phase
// 3. Targets on a decision are moved by nudge·workEps/4.
func fuzzLaneState(c *compiled, md uint8, clock, offset, start, snap, risk, stall, reexec, overlap,
	resume, span float64, aim uint8, nudge int8, committed bool) (laneState, float64, bool) {
	capped := func(x float64) float64 {
		if x = math.Abs(x); !(x <= 1e7) {
			return 1e7
		}
		return x
	}
	s := laneState{md: mode(md % 3), t: capped(clock), everCommitted: committed}
	c1, c2 := c.phases.Ckpt1, c.phases.Ckpt1+c.phases.Ckpt2
	s.periodStartWork = frac(start) * math.Max(c.tbase-c.periodWork, 0)
	s.snapshotWork = s.periodStartWork * frac(snap)
	switch r := frac(resume); {
	case r < 1.0/3:
	case r < 2.0/3:
		if c.pr.IsTriple() {
			s.resumeOffset = c1
		}
	default:
		s.resumeOffset = c2 + frac(3*r)*math.Max(c.period-c2, 0)
	}
	redo := math.Max(s.periodStartWork+c.scheduleWork(s.resumeOffset)-s.snapshotWork, 0)
	switch s.md {
	case modeSchedule:
		s.offset = frac(offset) * c.period
		s.work = s.periodStartWork + c.scheduleWork(s.offset)
	case modeStall:
		s.stall = math.Min(capped(stall), 1e4)
		s.work, s.reexec = s.snapshotWork, redo
	case modeReexec:
		done := frac(reexec) * redo
		s.work, s.reexec = s.snapshotWork+done, redo-done
	}
	if s.md != modeSchedule && !c.pr.BlocksOnFailure() && aim%aims != aimModeEnd {
		s.overlap = frac(overlap) * float64(c.images) * c.theta
	}
	if s.work >= c.tbase-workEps {
		return s, 0, false
	}
	s.riskUntil = s.t + (2*frac(risk)-1)*2*c.risk
	s.riskTime = math.Max(s.riskUntil-s.t, 0) + 5

	ps := s.t - s.offset // the schedule's period start (schedule mode)
	n := math.Floor(math.Mod(capped(span), 1000))
	target := s.t + capped(span)
	switch aim % aims {
	case aimCommit:
		commit := c2
		if c.pr.IsTriple() {
			commit = c1
		}
		target = ps + n*c.period + commit
	case aimPhase1:
		target = ps + n*c.period + c1
	case aimPeriodEnd:
		target = ps + (n+1)*c.period
	case aimModeEnd:
		switch s.md {
		case modeStall:
			target = s.t + s.stall
		case modeReexec:
			target = s.t + s.reexec
		}
	case aimCompletion:
		target = ps + c.faultFreeMakespan(c.tbase-s.periodStartWork)
	case aimHorizon:
		target = c.horizon
	}
	target += float64(nudge) * workEps / 4
	return s, math.Max(target, s.t), true
}

// FuzzLaneAdvance is the lane kernel's differential test: the same
// batch, state and target through advanceLane and through the scalar
// engine.advanceUntil must agree (checkLaneAdvance). The seed corpus in
// testdata/fuzz/FuzzLaneAdvance aims at the commit offset, the period
// end, an open risk window, a re-execution resuming mid-period, work
// just under Tbase and the MaxSimTime horizon.
func FuzzLaneAdvance(f *testing.F) {
	batches := compileAll(f, laneAdvanceConfigs())
	f.Fuzz(func(t *testing.T, cfg, md uint8, clock, offset, start, snap, risk, stall, reexec, overlap,
		resume, span float64, aim uint8, nudge int8, committed bool) {
		b := batches[int(cfg)%len(batches)]
		s, target, ok := fuzzLaneState(&b.c, md, clock, offset, start, snap, risk, stall, reexec, overlap,
			resume, span, aim, nudge, committed)
		if !ok {
			t.Skip("work already at Tbase")
		}
		checkLaneAdvance(t, b, s, target)
	})
}

// TestLaneAdvanceBoundaryTies pins the ties of the period arithmetic.
// The scalar walk crosses a segment boundary once its offset is within
// workEps of it; the lane crosses at the boundary itself. Every target
// here is a boundary (the commit offset in the first and the second
// period, the period end, the completion instant) plus m·workEps/2,
// from a period start at 0 and one far out on the clock. Within
// 2·workEps of a boundary (|m| ≤ 4) the lane must agree with one side
// of the tie, and on some targets the two kernels do take different
// sides; beyond it the lane must agree with the scalar advance itself.
// From clock 0, where the arithmetic is exact, the lane crosses the
// first commit and the first period end exactly on the boundary.
func TestLaneAdvanceBoundaryTies(t *testing.T) {
	type decision struct {
		committed    bool
		snap, starts float64
	}
	decide := func(s laneState) decision { return decision{s.everCommitted, s.snapshotWork, s.periodStartWork} }
	split := 0
	for _, b := range compileAll(t, laneAdvanceConfigs()) {
		c := &b.c
		commit := c.phases.Ckpt1 + c.phases.Ckpt2
		if c.pr.IsTriple() {
			commit = c.phases.Ckpt1
		}
		for _, t0 := range []float64{0, 5e5 + 0.25} {
			s := laneState{md: modeSchedule, t: t0, riskUntil: t0 + c.risk, riskTime: c.risk}
			s.periodStartWork = c.tbase - 3.5*c.periodWork
			s.work = s.periodStartWork
			for bi, b0 := range []float64{
				t0 + commit, t0 + c.period, t0 + c.period + commit,
				t0 + c.faultFreeMakespan(c.tbase-s.periodStartWork),
			} {
				for m := -8; m <= 8; m++ {
					target := b0 + float64(m)*workEps/2
					tie := checkLaneAdvance(t, b, s, target)
					dl, lane := laneAdvance(b, s, target)
					ds, scalar := scalarAdvance(b, s, target)
					d := advanceDiff(dl, lane, ds, scalar, math.Max(target, 1), 0)
					if d != "" && (m < -4 || m > 4) {
						t.Fatalf("%v boundary %v%+d·workEps/2: lane and scalar disagree outside the tie window: %s",
							c.pr, b0, m, d)
					}
					if d != "" && tie {
						split++
					}
				}
				if t0 == 0 && bi < 2 {
					_, before := laneAdvance(b, s, b0-workEps/2)
					_, on := laneAdvance(b, s, b0)
					if decide(before) == decide(on) {
						t.Fatalf("%v boundary %v: the lane does not cross exactly on it (%+v)", c.pr, b0, decide(on))
					}
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no target inside a tie window split the two kernels")
	}
	t.Logf("%d targets split the kernels inside the tie window", split)
}
