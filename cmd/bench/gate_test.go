package main

import (
	"runtime"
	"strings"
	"testing"
)

// report builds a synthetic report with one row per suite row, each at
// ns ns/op and its allocs from allocs (0 when absent).
func report(cpus int, ns float64, allocs map[string]int64) Report {
	rep := Report{CPUs: cpus}
	for _, r := range rows {
		rep.Benchmarks = append(rep.Benchmarks, Metric{Name: r.name, NsOp: ns, AllocsOp: allocs[r.name]})
	}
	return rep
}

var baseAllocs = map[string]int64{
	"batch_runmany_2048":   80,
	"detailed_runner":      1,
	"replication_overhead": 2000,
}

func TestGatePassesTenPercentMedian(t *testing.T) {
	base := report(1, 1000, baseAllocs)
	if err := gate(rows, report(1, 1100, baseAllocs), base); err != nil {
		t.Fatalf("+10%% median failed the gate: %v", err)
	}
}

func TestGateFailsThirtyPercentMedian(t *testing.T) {
	base := report(1, 1000, baseAllocs)
	err := gate(rows, report(1, 1300, baseAllocs), base)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("+30%% median: got %v, want a regression", err)
	}
}

func TestGateEngineAllocsAbsolute(t *testing.T) {
	base := report(1, 1000, baseAllocs)
	got := map[string]int64{"engine_throughput": allocSlack}
	for k, v := range baseAllocs {
		got[k] = v
	}
	if err := gate(rows, report(1, 1000, got), base); err != nil {
		t.Fatalf("+%d allocs on engine_throughput failed the gate: %v", allocSlack, err)
	}
	got["engine_throughput"] = allocSlack + 1
	err := gate(rows, report(1, 1000, got), base)
	if err == nil || !strings.Contains(err.Error(), "engine_throughput allocates 9/op") {
		t.Fatalf("+9 allocs on engine_throughput: got %v, want an allocation failure", err)
	}
}

func TestGateRelativeAllocs(t *testing.T) {
	base := report(1, 1000, baseAllocs)
	got := map[string]int64{}
	for k, v := range baseAllocs {
		got[k] = v
	}
	got["replication_overhead"] = 2500 // +25 %
	if err := gate(rows, report(1, 1000, got), base); err != nil {
		t.Fatalf("+25%% allocs on replication_overhead failed the gate: %v", err)
	}
	got["replication_overhead"] = 2501
	if err := gate(rows, report(1, 1000, got), base); err == nil {
		t.Fatal("allocs past +25% on replication_overhead passed the gate")
	}
}

func TestGateFailsMissingRow(t *testing.T) {
	base := report(1, 1000, baseAllocs)
	rep := report(1, 1000, baseAllocs)
	rep.Benchmarks = rep.Benchmarks[1:]
	err := gate(rows, rep, base)
	if err == nil || !strings.Contains(err.Error(), rows[0].name+" missing from measurement") {
		t.Fatalf("row missing from the measurement: got %v", err)
	}
	err = gate(rows, report(1, 1000, baseAllocs), rep)
	if err == nil || !strings.Contains(err.Error(), rows[0].name+" missing from baseline") {
		t.Fatalf("row missing from the baseline: got %v", err)
	}
}

func TestRunMeasuresAtBaselineCPUs(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	cpus := before + 1
	var seen []int
	fake := []row{{name: "engine_throughput", sample: func() Metric {
		seen = append(seen, runtime.GOMAXPROCS(0))
		return Metric{NsOp: 1000}
	}}}
	base := Report{CPUs: cpus, Benchmarks: []Metric{{Name: "engine_throughput", NsOp: 1000}}}
	rep, err := run(fake, &base)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != samples {
		t.Fatalf("row sampled %d times, want %d", len(seen), samples)
	}
	for _, p := range seen {
		if p != cpus {
			t.Fatalf("row ran at GOMAXPROCS=%d, baseline cpus %d", p, cpus)
		}
	}
	if rep.CPUs != cpus {
		t.Fatalf("report records cpus %d, want %d", rep.CPUs, cpus)
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("GOMAXPROCS left at %d, was %d", got, before)
	}
	if _, err := run(fake, &Report{}); err == nil {
		t.Fatal("a baseline without cpus was accepted")
	}
}

func TestSummarizeTakesMedians(t *testing.T) {
	ms := []Metric{
		{NsOp: 100, AllocsOp: 3, Extra: map[string]float64{"x": 1}},
		{NsOp: 900, AllocsOp: 9, Extra: map[string]float64{"x": 9}},
		{NsOp: 110, AllocsOp: 3, Extra: map[string]float64{"x": 2}},
	}
	m := summarize("r", ms)
	if m.Name != "r" || m.NsOp != 110 || m.AllocsOp != 3 || m.Extra["x"] != 2 {
		t.Fatalf("summary %+v: want median 110 ns/op, 3 allocs/op, x=2", m)
	}
	if m.CI95 <= 0 || len(m.NsSamples) != len(ms) {
		t.Fatalf("summary %+v: want a positive CI95 and every sample kept", m)
	}
}
