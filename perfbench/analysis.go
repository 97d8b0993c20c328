package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/fabric"
)

// opSpans is one operation's spans with their parent links.
type opSpans struct {
	op     opRecord
	spans  []span // spans[0] is the operation itself
	parent []int  // parent index into spans; -1 for the operation
}

// groupSpans attributes every span to the operation whose interval
// contains its start. One operation is in flight at a time, so that is
// the operation that caused it; background heartbeats and spans that
// start between operations are left out.
func groupSpans(ops []opRecord, spans []span) []opSpans {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	groups := make([]opSpans, len(ops))
	for k, op := range ops {
		groups[k] = opSpans{op: op, spans: []span{{kind: kindOp, start: op.start, end: op.end}}}
	}
	for _, s := range spans {
		if s.kind == kindBackground {
			continue
		}
		k := sort.Search(len(ops), func(k int) bool { return ops[k].end >= s.start })
		if k < len(ops) && ops[k].start <= s.start {
			groups[k].spans = append(groups[k].spans, s)
		}
	}
	for k := range groups {
		groups[k].link()
	}
	return groups
}

// link finds each span's parent: the innermost span of the kind that
// causes it whose interval contains the child's start.
func (g *opSpans) link() {
	g.parent = make([]int, len(g.spans))
	g.parent[0] = -1
	for c := 1; c < len(g.spans); c++ {
		s := g.spans[c]
		find := func(kind string, match func(p span) bool) int {
			best := -1
			for p := 1; p < len(g.spans); p++ {
				ps := g.spans[p]
				if p == c || ps.kind != kind || ps.start > s.start || ps.end < s.start || !match(ps) {
					continue
				}
				if best < 0 || ps.start >= g.spans[best].start {
					best = p
				}
			}
			return best
		}
		sameNode := func(p span) bool { return p.node == s.node }
		servedBy := func(p span) bool { return p.peer == s.node }
		parent := -1
		switch s.kind {
		case kindHandler:
			if s.off >= 0 { // a range dispatched by the coordinator
				parent = find(kindDispatch, servedBy)
			}
		case kindDispatch:
			parent = find(kindCoordinator, sameNode)
		case kindExec:
			parent = find(kindHandler, func(p span) bool {
				return sameNode(p) && strings.HasSuffix(p.path, "/results")
			})
		case kindEmit:
			parent = find(kindExec, sameNode)
		case kindQuorum:
			if parent = find(kindEmit, sameNode); parent < 0 {
				parent = find(kindHandler, sameNode)
			}
		case kindRPC:
			parent = find(kindQuorum, sameNode)
		case kindReplica:
			parent = find(kindRPC, servedBy)
		}
		if parent < 0 {
			parent = 0
		}
		g.parent[c] = parent
	}
}

// self returns each span's duration minus the part of it its children
// cover.
func (g *opSpans) self() []int64 {
	children := make([][]int, len(g.spans))
	for c, p := range g.parent {
		if p >= 0 {
			children[p] = append(children[p], c)
		}
	}
	out := make([]int64, len(g.spans))
	for p, s := range g.spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[p] {
			a, b := max(g.spans[c].start, s.start), min(g.spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, reach := int64(0), s.start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		out[p] = s.end - s.start - covered
	}
	return out
}

// layerOf maps a span kind to the repository layer it times.
func layerOf(kind string) string {
	switch kind {
	case kindOp:
		return "client"
	case kindHandler:
		return "api"
	case kindExec, kindEmit:
		return "jobs"
	}
	return "fabric"
}

// spanRecord is one span as the traced run writes it out.
type spanRecord struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Kind    string `json:"kind"`
	Node    string `json:"node,omitempty"`
	Peer    string `json:"peer,omitempty"`
	Path    string `json:"path,omitempty"`
	Sub     string `json:"sub,omitempty"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	SelfNs  int64  `json:"selfNs"`
}

// writeSpans writes every attributed span as one NDJSON record: its
// operation, its index and its parent's within the operation (-1 for
// the operation itself), and its self time.
func writeSpans(path string, groups []opSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, g := range groups {
		self := g.self()
		for k, s := range g.spans {
			rec := spanRecord{Op: g.op.index, ID: k, Parent: g.parent[k], Kind: s.kind, Node: s.node, Peer: s.peer,
				Path: s.path, Sub: s.sub, StartNs: s.start, EndNs: s.end, SelfNs: self[k]}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// traceInput is what the span analysis needs.
type traceInput struct {
	w       workload
	ops     []opRecord // the traced operations
	groups  []opSpans  // their spans, from groupSpans
	dials   int64
	workers []string         // fleet worker URLs, in ring order
	ranges  [][]fabric.Range // ring partition of requests 0, 1, …
}

const msPerNs = 1e-6

// analyzeSpans computes the span-derived per-layer metrics. It returns
// an error when the fleet's measured dispatch ranges disagree with the
// ring partition of the same requests.
func analyzeSpans(in traceInput, m map[string]float64) error {
	groups := in.groups
	n := float64(len(groups))
	if n == 0 {
		return fmt.Errorf("no traced operations")
	}
	var (
		handlerNs, coordSelf, execSelf, localDurable          []float64
		dispatch, ttfb, rtt, ckptEmit, queueWait, lag, submit []float64
		quorum                                                = map[string][]float64{}
		layerSelf                                             = map[string]float64{}
		dispatches, matched, respBytes, rpcCkpt, rpcCkptByte  float64
		firstRanges, firstN                                   float64
		perOwner                                              = make([]float64, len(in.workers))
		stolen                                                float64
	)
	workerIndex := map[string]int{}
	for i, u := range in.workers {
		workerIndex[strings.TrimPrefix(u, "http://")] = i
	}
	for _, g := range groups {
		self := g.self()
		respBytes += float64(g.op.bytes)
		// The ring's partition of this request, by range: the owner of
		// every [offset, offset+limit) the coordinator may dispatch first.
		var ring map[[2]int]int
		if g.op.index < len(in.ranges) {
			ring = map[[2]int]int{}
			for _, r := range in.ranges[g.op.index] {
				ring[[2]int{r.Start, r.Count}] = r.Worker
			}
		}
		var opRanges float64
		var execStart, lastEmit int64 = -1, -1
		opHandler := 0.0
		for k, s := range g.spans {
			layerSelf[layerOf(s.kind)] += float64(self[k])
			dur := float64(s.end - s.start)
			switch s.kind {
			case kindHandler, kindCoordinator:
				if strings.HasSuffix(s.path, "/v1/sweep") {
					opHandler += dur
				}
				if s.kind == kindCoordinator {
					coordSelf = append(coordSelf, float64(self[k]))
				}
			case kindDispatch:
				dispatches++
				respBytes += float64(s.in)
				dispatch = append(dispatch, dur)
				ttfb = append(ttfb, float64(s.ttfb-s.start))
				// A dispatch of a whole ring range is a first dispatch,
				// whichever worker took it (idle workers steal pending
				// ranges); anything else re-dispatches a range's suffix.
				if owner, ok := ring[[2]int{s.off, s.lim}]; ok {
					matched++
					opRanges++
					if w, ok := workerIndex[s.peer]; ok && w != owner {
						stolen++
					}
				}
			case kindExec:
				execSelf = append(execSelf, float64(self[k]))
				execStart = s.start
			case kindEmit:
				lastEmit = max(lastEmit, s.end)
				if s.ckpt {
					ckptEmit = append(ckptEmit, dur)
					localDurable = append(localDurable, float64(self[k]))
				}
			case kindQuorum:
				quorum[s.sub] = append(quorum[s.sub], dur)
			case kindRPC:
				rtt = append(rtt, dur)
				if strings.HasSuffix(s.path, "/checkpoint") {
					rpcCkpt++
					rpcCkptByte += float64(s.in + s.out)
				}
			}
		}
		handlerNs = append(handlerNs, opHandler)
		if ring != nil {
			if want := len(in.ranges[g.op.index]); int(opRanges) != want {
				return fmt.Errorf("operation %d dispatched %v of its %d ring ranges", g.op.index, opRanges, want)
			}
		}
		if ring != nil && g.op.index < prefixOps {
			// Ranges and shares are reported over the first requests
			// only, so runs of one seed report the same values.
			firstRanges += opRanges
			firstN++
			for _, r := range in.ranges[g.op.index] {
				perOwner[r.Worker] += float64(r.Count)
			}
		}
		if in.w.jobs {
			submit = append(submit, float64(g.op.ack-g.op.start))
			if execStart >= 0 {
				queueWait = append(queueWait, float64(execStart-g.op.ack))
			}
			if lastEmit >= 0 {
				lag = append(lag, float64(g.op.last-lastEmit))
			}
		}
	}
	points := 0.0
	for _, op := range in.ops {
		points += float64(op.lines)
	}
	m["api.handler_ms"] = mean(handlerNs) * msPerNs
	m["api.bytes_per_point"] = respBytes / max(points, 1)
	if firstN > 0 {
		m["fabric.ranges_per_sweep"] = firstRanges / firstN
		total, top := 0.0, 0.0
		for _, p := range perOwner {
			total += p
			top = max(top, p)
		}
		m["fabric.max_worker_share"] = top / max(total, 1)
	}
	m["fabric.stolen_range_share"] = stolen / max(matched, 1)
	m["fabric.redispatches_per_sweep"] = (dispatches - matched) / n
	m["fabric.dispatches_per_sweep"] = dispatches / n
	m["fabric.conns_per_sweep"] = float64(in.dials) / n
	m["fabric.dispatch_ms"] = mean(dispatch) * msPerNs
	m["fabric.dispatch_ttfb_ms"] = mean(ttfb) * msPerNs
	m["fabric.coordinator_self_ms"] = mean(coordSelf) * msPerNs
	m["jobs.submit_ms"] = mean(submit) * msPerNs
	m["jobs.queue_wait_ms"] = mean(queueWait) * msPerNs
	m["jobs.exec_self_ms"] = mean(execSelf) * msPerNs
	m["jobs.checkpoint_ms"] = mean(ckptEmit) * msPerNs
	m["jobs.local_durable_ms"] = mean(localDurable) * msPerNs
	m["jobs.follow_lag_ms"] = mean(lag) * msPerNs
	m["fabric.quorum_create_ms"] = mean(quorum["create"]) * msPerNs
	m["fabric.quorum_checkpoint_ms"] = mean(quorum["checkpoint"]) * msPerNs
	m["fabric.quorum_remove_ms"] = mean(quorum["remove"]) * msPerNs
	m["fabric.replica_rtt_ms"] = mean(rtt) * msPerNs
	if c := float64(len(quorum["checkpoint"])); c > 0 {
		m["fabric.replica_requests_per_checkpoint"] = rpcCkpt / c
		m["fabric.replica_bytes_per_checkpoint"] = rpcCkptByte / c
	}
	for _, layer := range []string{"client", "api", "fabric", "jobs"} {
		m["layer."+layer+"_self_ms"] = layerSelf[layer] / n * msPerNs
	}
	return nil
}
