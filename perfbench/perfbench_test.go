package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// shortRun runs one workload briefly with a single set-up.
func shortRun(t *testing.T, workload string, trace bool, state string, mutate func(int, []byte)) *Result {
	t.Helper()
	return runFor(t, workload, 0.4, trace, state, mutate)
}

func runFor(t *testing.T, workload string, seconds float64, trace bool, state string, mutate func(int, []byte)) *Result {
	t.Helper()
	res, err := Run(Options{Workload: workload, Seed: 7, Seconds: seconds, Trace: trace, StateDir: state, Setups: 1, Mutate: mutate})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func sortedWorkloads() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestBenchmarkJSONMatchesTables pins the metric tables and workload
// names to the repository's BENCHMARK.json, so the contract and the code
// cannot drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, the code has %s", w.Name, workloadNames())
		}
	}
	check := func(table string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", table, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", table, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// checks that each named metric is printed with its unit, and that the
// end-to-end ones are never zero.
func TestEveryMetricEmitted(t *testing.T) {
	state := t.TempDir()
	for _, name := range sortedWorkloads() {
		for _, trace := range []bool{false, true} {
			res := shortRun(t, name, trace, state, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v", name, d.name, m.Value)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 {
				t.Errorf("result line has keys %v, want correct, attempted, failed and metrics", keys)
			}
		}
	}
}

// flipDigit changes the first digit of the first simWaste value.
func flipDigit(body []byte) {
	k := bytes.Index(body, []byte(`"simWaste":`))
	if k < 0 {
		return
	}
	for k < len(body) && (body[k] < '0' || body[k] > '9') {
		k++
	}
	if k < len(body) {
		body[k] = '0' + (body[k]-'0'+1)%10
	}
}

// TestFlippedByteFails corrupts one byte of the first operation's
// recorded output and expects the run to count it as failed.
func TestFlippedByteFails(t *testing.T) {
	state := t.TempDir()
	for _, name := range sortedWorkloads() {
		res := shortRun(t, name, false, state, func(op int, body []byte) {
			if op == 0 {
				flipDigit(body)
			}
		})
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: a flipped byte gave correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

// TestFleetPartitionRepeats runs the traced fleet workload twice with
// one seed: the dispatch ranges and the largest worker share must repeat
// exactly.
func TestFleetPartitionRepeats(t *testing.T) {
	state := t.TempDir()
	a := runFor(t, "fleet_sweep", 3, true, state, nil)
	b := runFor(t, "fleet_sweep", 3, true, state, nil)
	if !a.Correct || !b.Correct {
		t.Errorf("runs incorrect: %v / %v", a.Failures, b.Failures)
	}
	for _, name := range []string{"fabric.ranges_per_sweep", "fabric.max_worker_share"} {
		va, vb := a.Metrics[name].Value, b.Metrics[name].Value
		if va != vb || va == 0 {
			t.Errorf("%s: %v then %v for one seed", name, va, vb)
		}
	}
}

// TestDigestRepeats runs one seed twice: the operations both runs made
// must have produced the same output bytes.
func TestDigestRepeats(t *testing.T) {
	state := t.TempDir()
	a := shortRun(t, "sweep_adaptive", false, state, nil)
	b := shortRun(t, "sweep_adaptive", false, state, nil)
	n := min(len(a.opHashes), len(b.opHashes))
	if n == 0 {
		t.Fatal("no operations to compare")
	}
	for i := 0; i < n; i++ {
		if a.opHashes[i] != b.opHashes[i] {
			t.Errorf("operation %d: output differs between two runs of one seed", i)
		}
	}
}

// TestStealCorrection pins how times are made net of host CPU steal: by
// the unstolen share of busy jiffies (idle and iowait left out), and per
// operation over the smallest run of operations around it that holds
// minBusyJiffies.
func TestStealCorrection(t *testing.T) {
	a := hostCPU{total: 1000, idle: 400, steal: 100}
	// 100 jiffies later: 20 idle, 80 busy, 20 of those stolen.
	if got := unstolen(a, hostCPU{total: 1100, idle: 420, steal: 120}); got != 0.75 {
		t.Errorf("unstolen = %v, want 0.75", got)
	}
	if got := unstolen(a, hostCPU{total: 1100, idle: 500, steal: 100}); got != 1 {
		t.Errorf("idle throughout: unstolen = %v, want 1", got)
	}
	if got := unstolen(a, hostCPU{total: 1001, idle: 390, steal: 100}); got != 1 {
		t.Errorf("iowait stepping back: unstolen = %v, want 1", got)
	}

	// Five operations of 10 busy jiffies each; the first is all stolen.
	const per = minBusyJiffies / 3
	p := phase{ops: make([]opRecord, 5)}
	var h hostCPU
	for k := 0; k <= len(p.ops); k++ {
		p.hosts = append(p.hosts, h)
		h.total += per
		if k == 0 {
			h.steal += per
		}
	}
	want := []float64{2. / 3, 2. / 3, 1, 1, 1}
	for k, got := range p.opUnstolen() {
		if math.Abs(got-want[k]) > 1e-12 {
			t.Errorf("operation %d: unstolen share %v, want %v", k, got, want[k])
		}
	}
}
