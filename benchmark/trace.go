package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the driver made into a layer. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the
// span that caused this one, -1 for none; spans of one op share OpID. The
// root span of every op is named rootSpan; work done beside an op (the
// RemoveLocal after a replacement, the mutation before a lookup cycle) is
// a parentless span of another name.
type span struct {
	Name   string           `json:"name"`
	Start  int64            `json:"start"`
	End    int64            `json:"end"`
	Parent int32            `json:"parent"`
	OpID   int64            `json:"op_id"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

const rootSpan = "op"

// tracer keeps spans in memory until the run ends. It has a single
// writer — the driver goroutine — so it needs no lock; handlers running
// on uMiddle's goroutines hand their timestamps to the driver through
// atomics and the driver records the span. A nil *tracer means the run is
// untraced, and callers branch on that before taking the extra clock
// readings a span needs.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

// add records one span and returns its index for use as a parent. A
// span that ends before it starts — the sink ran before Emit returned to
// the driver — is recorded as empty.
func (t *tracer) add(name string, parent int32, op int64, start, end time.Time) int32 {
	s := span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent, OpID: op}
	s.End = max(s.End, s.Start)
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) roots() int {
	n := 0
	for _, s := range t.spans {
		if s.Name == rootSpan {
			n++
		}
	}
	return n
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Ops      int    `json:"ops"` // root spans; equals the ops the traced window reports
	Spans    []span `json:"spans"`
}

// outDir is where a run leaves its files, relative to the benchmark's
// directory: trace-<workload>.json and result-<workload>.json.
const outDir = "out"

func (t *tracer) write(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Ops: t.roots(), Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its own
// interval that its child spans cover (overlapping children are counted
// once; a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	children := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a].s < kids[b].s })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.s, edge), min(k.e, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanSummary aggregates one span name over a trace.
type spanSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := make(map[string]*spanSummary)
	var order []string
	for i, s := range spans {
		agg := byName[s.Name]
		if agg == nil {
			agg = &spanSummary{Name: s.Name}
			byName[s.Name] = agg
			order = append(order, s.Name)
		}
		agg.Count++
		agg.TotalNs += s.End - s.Start
		agg.SelfNs += self[i]
	}
	out := make([]spanSummary, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// durations collects the lengths of every span with the given name.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}
