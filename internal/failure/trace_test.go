package failure

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
)

// TestReadTraceRejectsTrailingData pins the EOF-after-decode fix:
// json.Decoder.Decode stops at the first JSON value, so a trace glued
// to garbage (or two concatenated traces) used to pass silently.
func TestReadTraceRejectsTrailingData(t *testing.T) {
	valid := `{"nodes":4,"platform_mtbf":100,"law":"exponential","events":[{"t":1,"node":0}]}`
	if _, err := ReadTrace(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []string{
		valid + "garbage",
		valid + valid, // two concatenated documents
		valid + `{"nodes":1}`,
		valid + "[1,2,3]",
		valid + "null",
	}
	for i, doc := range bad {
		if _, err := ReadTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("document %d with trailing data should fail", i)
		}
	}
	// Trailing whitespace and newlines are not data.
	if _, err := ReadTrace(strings.NewReader(valid + "\n  \n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

// TestTraceValidateRejectsNonFinite pins the NaN/Inf fix: `NaN < prev`
// is false, so a pure ordering check silently admits non-finite times.
func TestTraceValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name string
		tr   Trace
	}{
		{"NaN time", Trace{Nodes: 4, Events: []Event{{Time: nan, Node: 0}}}},
		{"+Inf time", Trace{Nodes: 4, Events: []Event{{Time: inf, Node: 0}}}},
		{"-Inf time", Trace{Nodes: 4, Events: []Event{{Time: math.Inf(-1), Node: 0}}}},
		{"negative after NaN", Trace{Nodes: 4, Events: []Event{{Time: nan, Node: 0}, {Time: -1, Node: 0}}}},
		{"NaN platform MTBF", Trace{Nodes: 4, PlatformMTBF: nan}},
		{"+Inf platform MTBF", Trace{Nodes: 4, PlatformMTBF: inf}},
		{"negative platform MTBF", Trace{Nodes: 4, PlatformMTBF: -1}},
		{"NaN horizon", Trace{Nodes: 4, Horizon: nan}},
		{"+Inf horizon", Trace{Nodes: 4, Horizon: inf}},
		{"horizon before last event", Trace{Nodes: 4, Horizon: 5, Events: []Event{{Time: 10, Node: 0}}}},
		{"negative time", Trace{Nodes: 4, Events: []Event{{Time: -3, Node: 0}}}},
	}
	for _, tc := range bad {
		if err := tc.tr.Validate(); err == nil {
			t.Errorf("%s: should fail validation", tc.name)
		}
	}
	ok := Trace{Nodes: 4, PlatformMTBF: 100, Horizon: 20, Events: []Event{{Time: 1, Node: 0}, {Time: 1, Node: 3}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

// TestCollectRecordsHorizon pins that the recording path stamps the
// observation window, so replays know how far silence is meaningful.
func TestCollectRecordsHorizon(t *testing.T) {
	src := NewMerged(8, 20, rng.New(13))
	tr := Collect(src, 8, 20, "exponential", 750)
	if tr.Horizon != 750 {
		t.Fatalf("Collect recorded horizon %v, want 750", tr.Horizon)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Horizon != 750 {
		t.Fatalf("horizon did not round-trip: %v", back.Horizon)
	}
}

func TestTraceCoverage(t *testing.T) {
	withHorizon := Trace{Nodes: 2, Horizon: 100, Events: []Event{{Time: 30, Node: 0}}}
	if got := withHorizon.Coverage(); got != 100 {
		t.Fatalf("coverage with horizon = %v, want 100", got)
	}
	legacy := Trace{Nodes: 2, Events: []Event{{Time: 30, Node: 0}, {Time: 70, Node: 1}}}
	if got := legacy.Coverage(); got != 70 {
		t.Fatalf("legacy coverage = %v, want last event 70", got)
	}
	empty := Trace{Nodes: 2}
	if got := empty.Coverage(); got != 0 {
		t.Fatalf("empty coverage = %v, want 0", got)
	}
}

func TestReplayCoverage(t *testing.T) {
	events := []Event{{Time: 5, Node: 0}, {Time: 9, Node: 1}}
	raw := NewReplay(events)
	if !math.IsInf(raw.CoverageHorizon(), 1) {
		t.Fatalf("raw replay coverage = %v, want +Inf", raw.CoverageHorizon())
	}
	tr := &Trace{Nodes: 2, Horizon: 50, Events: events}
	rep := NewReplayTrace(tr)
	if rep.CoverageHorizon() != 50 {
		t.Fatalf("trace replay coverage = %v, want 50", rep.CoverageHorizon())
	}
	var got []Event
	for {
		ev, ok := rep.Next()
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if len(got) != 2 || got[0] != events[0] || got[1] != events[1] {
		t.Fatalf("trace replay produced %v", got)
	}
	rep.Rewind()
	if ev, ok := rep.Next(); !ok || ev != events[0] {
		t.Fatalf("rewound replay produced %v, %v", ev, ok)
	}
}

// FuzzReadTrace: the trace importer never panics, and every input
// either fails or yields a trace a simulator can replay — at least one
// node, events at finite non-negative times, in time order, on valid
// node IDs — which re-encodes and reads back to the same trace. The
// seed corpus (testdata/fuzz/FuzzReadTrace) holds an empty input, a
// header without events, NaN/Inf/negative and overflowing times,
// unsorted events, a node out of range, a torn document and CRLF line
// ends.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(`{"nodes":4,"platform_mtbf":100,"law":"exponential","horizon":9,"events":[{"t":1,"node":0},{"t":2,"node":3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr.Nodes < 1 {
			t.Fatalf("accepted a trace with %d nodes", tr.Nodes)
		}
		prev := 0.0
		for i, ev := range tr.Events {
			if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) || ev.Time < prev {
				t.Fatalf("accepted event %d at %v after %v", i, ev.Time, prev)
			}
			if ev.Node < 0 || ev.Node >= tr.Nodes {
				t.Fatalf("accepted event %d on node %d of %d", i, ev.Node, tr.Nodes)
			}
			prev = ev.Time
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("accepted trace does not read back: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("trace read back as %+v, want %+v", back, tr)
		}
	})
}
