package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/fabric"
)

// defaultSetups is how many times a run brings its topology up. One
// set-up is dominated by a single warm-up operation, so it takes many
// to make their median steady.
const defaultSetups = 15

// Options configures one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the length of the timed phase. A traced run spends the
	// first half traced and the second half untraced.
	Seconds float64
	// Trace selects the traced per-layer run.
	Trace bool
	// StateDir holds the job stores and the cross-run ring record.
	StateDir string
	// Setups is how many times the topology is brought up (the tests use
	// fewer); the last one serves the timed phase and setup_s is their
	// median.
	Setups int
	// Mutate, when set, may alter an operation's result bytes before they
	// are checked; tests use it to prove a corrupted output is caught.
	Mutate func(op int, body []byte)
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Env and Failures are printed on their own lines before the result.
	Env      Env      `json:"-"`
	Failures []string `json:"-"`
	// opHashes are the operations' output hashes in order.
	opHashes [][sha256.Size]byte
}

// Env records the conditions of a run next to its metrics, so a
// contended host can be told apart from a slow program.
type Env struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	// StealShare is the host's CPU steal share over the timed phase,
	// from /proc/stat.
	StealShare float64 `json:"steal_share"`
	Ops        int     `json:"ops"`
	Points     int     `json:"points"`
	// Digest covers every operation's output bytes in order;
	// DigestPrefix only the first PrefixOps operations, so two runs of
	// one seed compare on it whatever their length.
	Digest       string `json:"digest"`
	DigestPrefix string `json:"digest_prefix"`
	PrefixOps    int    `json:"prefix_ops"`
	// SetupsS lists every set-up's duration; setup_s is their median.
	SetupsS []float64 `json:"setups_s"`
	// SpansFile is where a traced run wrote its spans.
	SpansFile string `json:"spans_file,omitempty"`
}

// phase is one timed closed-loop phase.
type phase struct {
	ops    []opRecord
	cpu    time.Duration
	rt0    runtimeSample
	rt1    runtimeSample
	host0  hostCPU
	host1  hostCPU
	points int
	// rssMiB is the process's VmHWM once rssOps operations were done
	// (at the end of the phase if it ran fewer).
	rssMiB float64
	// hosts[k] is the host's CPU counters when operation k was sent;
	// the last entry is read after the phase.
	hosts []hostCPU
}

// unstolen is the unstolen share of busy host CPU time between sending
// operation lo and sending operation hi (the end of the phase for
// hi = len(ops)).
func (p phase) unstolen(lo, hi int) float64 {
	return unstolen(p.hosts[lo], p.hosts[hi])
}

// minBusyJiffies is the least busy host CPU time, in 10 ms jiffies, over
// which opUnstolen takes an operation's unstolen share.
const minBusyJiffies = 30

// opUnstolen returns, for each operation, the unstolen share of busy
// host CPU time over the smallest run of operations around it that
// holds at least minBusyJiffies (the whole phase if it holds fewer).
// Steal comes in bursts that hit single operations, so the share must
// be local to the operation; but /proc/stat counts whole jiffies, and
// over one short operation the share would be a biased ratio of a few.
func (p phase) opUnstolen() []float64 {
	n := len(p.ops)
	keep := make([]float64, n)
	for k := range keep {
		lo, hi := k, k+1
		for busyJiffies(p.hosts[lo], p.hosts[hi]) < minBusyJiffies && (lo > 0 || hi < n) {
			if hi < n {
				hi++
			}
			if lo > 0 && busyJiffies(p.hosts[lo], p.hosts[hi]) < minBusyJiffies {
				lo--
			}
		}
		keep[k] = p.unstolen(lo, hi)
	}
	return keep
}

func (p phase) cpuMsPerPoint() float64 {
	return float64(p.cpu) / 1e6 / float64(max(p.points, 1))
}

// rssOps is the operation count at which a phase reads the process's
// peak RSS. fleet_sweep's point caches fill for its first hundred or so
// operations, so a reading at the end of a timed phase would grow with
// how fast the host ran; after a fixed count every run has done the
// same work. Even a contended host completes 48 fleet operations in a
// 20 s phase.
const rssOps = 48

// runPhase drives operations first, first+1, … until seconds have
// passed and at least minOps have run, each sent only after the
// previous one completed.
func runPhase(cl *client, w workload, t *topology, seed uint64, first, minOps int, seconds float64) phase {
	p := phase{host0: readHostCPU(), rt0: readRuntime()}
	c0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for i := first; i-first < minOps || time.Now().Before(deadline); i++ {
		p.hosts = append(p.hosts, readHostCPU())
		op := cl.do(w, t, seed, i)
		p.points += op.lines
		p.ops = append(p.ops, op)
		if len(p.ops) == rssOps {
			p.rssMiB = peakRSSMiB()
		}
	}
	if len(p.ops) < rssOps {
		p.rssMiB = peakRSSMiB()
	}
	p.cpu = cpuTime() - c0
	p.rt1, p.host1 = readRuntime(), readHostCPU()
	p.hosts = append(p.hosts, p.host1)
	return p
}

// Run executes one benchmark run.
func Run(o Options) (*Result, error) {
	w, ok := workloads[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, workloadNames())
	}
	if o.Seconds <= 0 || o.Setups < 1 {
		return nil, errors.New("seconds and setups must be positive")
	}
	if err := os.MkdirAll(o.StateDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	clock := time.Now()
	if o.Trace {
		tr = newTracer()
		clock = tr.base
	}
	runDir := filepath.Join(o.StateDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)

	res := &Result{Correct: true, Metrics: map[string]Metric{}}
	fail := func(msg string) {
		res.Correct = false
		res.Failures = append(res.Failures, msg)
	}

	// Set-up: bring the topology up Setups times, each until /readyz
	// reports ready plus one untimed warm-up operation; keep the last.
	var (
		topo   *topology
		cl     *client
		setups []float64
	)
	for s := 0; s < o.Setups; s++ {
		if topo != nil {
			cl.close()
			topo.close()
		}
		h0, t0 := readHostCPU(), time.Now()
		var err error
		topo, err = buildTopology(w.topology, filepath.Join(runDir, strconv.Itoa(s)), o.Seed, tr)
		if err != nil {
			return nil, err
		}
		cl = newClient(topo, clock)
		if err := cl.waitReady(topo, 30*time.Second); err != nil {
			cl.close()
			topo.close()
			return nil, err
		}
		warm := cl.do(w, topo, o.Seed, -1)
		setups = append(setups, time.Since(t0).Seconds()*unstolen(h0, readHostCPU()))
		res.Attempted++
		if warm.err != nil {
			res.Failed++
			fail(fmt.Sprintf("warm-up: %v", warm.err))
		}
	}
	cl.mutate = o.Mutate

	var untraced, traced phase
	var health0, health1 []health
	if o.Trace {
		health0 = topo.health(cl)
		tr.on.Store(true)
		// The fleet's ring metrics cover the first prefixOps requests,
		// so the traced half runs at least those however slow the host.
		traced = runPhase(cl, w, topo, o.Seed, 0, prefixOps, o.Seconds/2)
		tr.on.Store(false)
		health1 = topo.health(cl)
		untraced = runPhase(cl, w, topo, o.Seed, len(traced.ops), 1, o.Seconds/2)
	} else {
		untraced = runPhase(cl, w, topo, o.Seed, 0, 1, o.Seconds)
	}
	workers := topo.workers
	cl.close()
	topo.close()

	ops := append(append([]opRecord(nil), traced.ops...), untraced.ops...)
	failed, msgs, err := verify(w, o.Seed, ops)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(ops)
	res.Failed += failed
	for _, m := range msgs {
		fail(m)
	}

	var ranges [][]fabric.Range
	if w.topology == topoFleet {
		shapes, parts, err := ringPartition(w, o.Seed, workers, max(prefixOps, len(traced.ops)))
		if err != nil {
			return nil, err
		}
		ranges = parts
		if err := checkRingRecord(o.StateDir, w, o.Seed, shapes[:prefixOps]); err != nil {
			fail(err.Error())
		}
	}

	values := map[string]float64{}
	var spansFile string
	defs := endToEndMetrics
	if o.Trace {
		defs = perLayerMetrics
		values["failed_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		groups := groupSpans(traced.ops, tr.take())
		spansFile = filepath.Join(o.StateDir, fmt.Sprintf("%s-%d-spans.ndjson", w.name, o.Seed))
		if err := writeSpans(spansFile, groups); err != nil {
			return nil, err
		}
		in := traceInput{w: w, ops: traced.ops, groups: groups, dials: tr.dials.Load(), workers: workers, ranges: ranges}
		if err := analyzeSpans(in, values); err != nil {
			fail(err.Error())
		}
		if err := inProcess(w, o.Seed, values); err != nil {
			return nil, err
		}
		layerMetrics(w, traced, untraced, health0, health1, values)
	} else {
		endToEnd(untraced, setups, values)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}

	timed := untraced
	if o.Trace {
		timed = traced
	}
	for _, op := range ops {
		res.opHashes = append(res.opHashes, op.hash)
	}
	all, prefix, prefixN := digests(ops)
	res.Env = Env{
		Workload:     w.name,
		Seed:         o.Seed,
		Trace:        o.Trace,
		Seconds:      o.Seconds,
		CPUs:         runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		StealShare:   stealShare(timed.host0, untraced.host1),
		Ops:          len(ops),
		Points:       traced.points + untraced.points,
		Digest:       all,
		DigestPrefix: prefix,
		PrefixOps:    prefixN,
		SetupsS:      setups,
		SpansFile:    spansFile,
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics of an untraced phase. Every
// wall-clock duration is net of host CPU steal: an operation's times are
// scaled by its opUnstolen share, a block's by the unstolen share over
// the block, and a set-up's by that over the set-up. A vCPU that the
// hypervisor takes away for a share s of the time it wants to run
// stretches that time by 1/(1-s), so the scaled figure is the one an
// uncontended host gives, and a run on a contended host measures the
// program, not its neighbours.
func endToEnd(p phase, setups []float64, m map[string]float64) {
	var lat, first []float64
	for k, keep := range p.opUnstolen() {
		if op := p.ops[k]; op.lines > 0 {
			lat = append(lat, float64(op.last-op.start)*msPerNs*keep)
			first = append(first, float64(op.first-op.start)*msPerNs*keep)
		}
	}
	m["setup_s"] = median(setups)
	m["latency_p50_ms"] = quantile(lat, 0.5)
	m["latency_p90_ms"] = blockP90(lat)
	m["first_result_p50_ms"] = quantile(first, 0.5)
	m["points_per_s"] = blockRate(p)
	m["cpu_ms_per_point"] = p.cpuMsPerPoint()
	m["rss_peak_mb"] = p.rssMiB
}

// rateBlocks is how many consecutive blocks of operations the timed
// phase is cut into for points_per_s.
const rateBlocks = 10

// blockRate is the median over rateBlocks consecutive blocks of
// operations of the points each block delivered per unstolen
// wall-clock second of the block. The median keeps a burst in one block
// from moving the run's figure.
func blockRate(p phase) float64 {
	ops := p.ops
	if len(ops) == 0 {
		return 0
	}
	blocks := min(rateBlocks, len(ops))
	var rates []float64
	for b := 0; b < blocks; b++ {
		lo, hi := b*len(ops)/blocks, (b+1)*len(ops)/blocks
		points := 0
		for _, op := range ops[lo:hi] {
			points += op.lines
		}
		if d := float64(ops[hi-1].end-ops[lo].start) / 1e9 * p.unstolen(lo, hi); d > 0 {
			rates = append(rates, float64(points)/d)
		}
	}
	return median(rates)
}

// layerMetrics computes the per-layer metrics that come from counters
// rather than spans: node cache counters over the traced phase, Go
// runtime counters over the untraced phase, and the derived products.
func layerMetrics(w workload, traced, untraced phase, h0, h1 []health, m map[string]float64) {
	var hits, misses, sims float64
	for k := range h1 {
		hits += float64(h1[k].CacheHits - h0[k].CacheHits)
		misses += float64(h1[k].CacheMisses - h0[k].CacheMisses)
		sims += float64(h1[k].SimPoints - h0[k].SimPoints)
	}
	if hits+misses > 0 {
		m["api.point_cache_hit_ratio"] = hits / (hits + misses)
	}
	ops := float64(max(len(traced.ops), 1))
	m["layer.sim_cpu_est_ms"] = sims / ops * m["sim.runs_per_point"] * m["sim.cpu_us_per_run"] / 1e3

	points := float64(max(untraced.points, 1))
	m["runtime.alloc_bytes_per_point"] = float64(untraced.rt1.allocBytes-untraced.rt0.allocBytes) / points
	if cpu := untraced.rt1.totalCPU - untraced.rt0.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (untraced.rt1.gcCPU - untraced.rt0.gcCPU) / cpu
	}
	m["trace.untraced_cpu_ms_per_point"] = untraced.cpuMsPerPoint()
	m["trace.overhead_cpu_ms_per_point"] = traced.cpuMsPerPoint() - untraced.cpuMsPerPoint()

	if w.topology == topoFleet {
		// Every dispatch makes its worker expand the whole grid before
		// slicing out its range: the suspect's cost per sweep, and its
		// share of the process CPU a sweep costs.
		grid := float64(gridSize(w.request(0, 0)))
		re := m["fabric.dispatches_per_sweep"] * grid * m["api.expand_us_per_point"] / 1e3
		m["fabric.reexpand_ms_per_sweep"] = re
		m["fabric.reexpand_cpu_share"] = re / (traced.cpuMsPerPoint() * grid)
	}
}

// health is a node's /healthz counters.
type health struct {
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	SimPoints   uint64 `json:"simPoints"`
}

// health reads every node's /healthz.
func (t *topology) health(cl *client) []health {
	out := make([]health, len(t.nodes))
	for k, n := range t.nodes {
		if err := cl.getJSON(n.url()+"/healthz", &out[k]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: healthz", n.name, err)
		}
	}
	return out
}

// inProcess replays the first requests of the sequence through a fresh
// in-process Service: PointKeys alone times grid expansion, Sweep the
// kernel, and the items give the statistics of the estimates.
func inProcess(w workload, seed uint64, m map[string]float64) error {
	svc := api.NewService(api.Options{})
	reqs := make([]api.SweepRequest, w.inProcess)
	for i := range reqs {
		reqs[i] = w.request(seed, i)
	}

	// Expansion: the median of several batches of at least 2000 points
	// each, so a GC cycle or a steal burst in one batch does not count.
	grid := gridSize(reqs[0])
	reps := (2000 + grid - 1) / grid
	var perPoint []float64
	for b := 0; b < 9; b++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := svc.PointKeys(reqs[r%len(reqs)]); err != nil {
				return err
			}
		}
		perPoint = append(perPoint, float64(time.Since(t0).Nanoseconds())/1e3/float64(reps*grid))
	}
	expandUS := median(perPoint)
	m["api.expand_us_per_point"] = expandUS

	c0, sim0 := cpuTime(), svc.SimPoints()
	var items []api.SweepItem
	for _, req := range reqs {
		its, _, err := svc.Sweep(context.Background(), req)
		if err != nil {
			return err
		}
		items = append(items, its...)
	}
	cpu := float64((cpuTime() - c0).Microseconds()) - expandUS*float64(len(items))
	simulated := float64(svc.SimPoints() - sim0)
	runs := simulated * float64(reqs[0].Runs)
	var capped, adaptive, feasible, agree float64
	if reqs[0].TargetRelErr != 0 {
		runs = 0
		for _, it := range items {
			if it.RunsUsed > 0 {
				adaptive++
				runs += float64(it.RunsUsed)
				if it.RunsUsed == defaultMaxRuns {
					capped++
				}
			}
		}
		m["engine.adaptive_capped_ratio"] = capped / max(adaptive, 1)
	}
	for _, it := range items {
		if it.Feasible {
			feasible++
			if math.Abs(it.SimWaste-it.ModelWaste) <= 3*it.SimCI/1.96 {
				agree++
			}
		}
	}
	m["sim.cpu_us_per_run"] = cpu / max(runs, 1)
	m["sim.runs_per_point"] = runs / max(simulated, 1)
	m["engine.model_agree_ratio"] = agree / max(feasible, 1)
	return nil
}

// ringPartition partitions the first n requests of the fleet sequence
// over the workers exactly as the coordinator's ring does.
func ringPartition(w workload, seed uint64, workers []string, n int) ([]ringShape, [][]fabric.Range, error) {
	ring, err := fabric.NewRing(workers, 0)
	if err != nil {
		return nil, nil, err
	}
	svc := api.NewService(api.Options{})
	shapes := make([]ringShape, n)
	parts := make([][]fabric.Range, n)
	for i := range shapes {
		keys, err := svc.PointKeys(w.request(seed, i))
		if err != nil {
			return nil, nil, err
		}
		parts[i] = ring.Ranges(keys, 0)
		per := make([]int, len(workers))
		for _, r := range parts[i] {
			per[r.Worker] += r.Count
		}
		sort.Ints(per)
		shapes[i] = ringShape{Ranges: len(parts[i]), MaxShare: float64(per[len(per)-1]) / float64(len(keys))}
	}
	return shapes, parts, nil
}
