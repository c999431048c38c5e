package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

// smokeScale shrinks every workload so the whole file runs in a few
// seconds; it asserts correctness and shape, never timing.
var smokeScale = scale{
	streamWarmup:  map[string]int{"stream_64b": 2048, "stream_64k": 512},
	churnBindings: 60, churnSteady: 20, churnWarmup: 3,
	lookupPopulation: 600, lookupLocals: 8, lookupWarmup: 2,
}

func checkMetrics(t *testing.T, what string, got map[string]value, want []string, positive bool) {
	t.Helper()
	printed := make(map[string]string)
	for _, name := range want {
		v, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
			continue
		case name == "bench.trace_overhead_pct" && !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0):
			// A difference of two measured rates: noise can make it negative.
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 || (positive && v.Value == 0):
			t.Errorf("%s: metric %s = %v", what, name, v.Value)
		}
		// PR 11 filled metrics a workload did not exercise with one
		// shared value; two distinct measured metrics never agree to
		// every printed digit.
		digits := fmt.Sprintf("%.6g", v.Value)
		if other, dup := printed[digits]; dup && positive {
			t.Errorf("%s: %s and %s both read %s", what, name, other, digits)
		}
		printed[digits] = name
	}
}

// TestSmoke runs each workload briefly, untraced and traced, and the
// probes once, then checks that between them they produce exactly the
// per-layer metrics the contract lists.
func TestSmoke(t *testing.T) {
	produced := make(map[string]bool)
	var e2e []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{seed: 7, seconds: 0.3, scale: smokeScale}
			r, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 || r.Samples == 0 {
				t.Fatalf("attempted %d, failed %d, samples %d: %v", r.Attempted, r.Failed, r.Samples, r.Failures)
			}
			checkMetrics(t, name, r.EndToEnd, e2e, true)

			cfg.trace, cfg.seconds = true, 0.6
			r, err = runWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 {
				t.Fatalf("traced: failed %d: %v", r.Failed, r.Failures)
			}
			var set []string
			for name := range r.PerLayer {
				set = append(set, name)
				produced[name] = true
			}
			checkMetrics(t, name+" traced", r.PerLayer, set, false)
			data, err := os.ReadFile(r.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, s := range tf.Spans {
				if s.Name == rootSpan {
					roots++
				}
			}
			if ops := int(r.PerLayer["bench.trace_ops"].Value); roots == 0 || roots != ops || tf.Ops != ops {
				t.Errorf("trace file has %d root spans (header says %d), run reports %d traced ops", roots, tf.Ops, ops)
			}
		})
	}
	t.Run("probes", func(t *testing.T) {
		pl := make(map[string]value)
		if err := runProbes(pl, 50); err != nil {
			t.Fatal(err)
		}
		var names []string
		for name := range pl {
			names = append(names, name)
			produced[name] = true
		}
		checkMetrics(t, "probes", pl, names, true)
	})
	listed := make(map[string]bool)
	for _, m := range perLayer {
		listed[m.Name] = true
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s is listed but nothing measures it", m.Name)
		}
	}
	for name := range produced {
		if !listed[name] {
			t.Errorf("per-layer metric %s is measured but not listed", name)
		}
	}
}

// TestContract checks that BENCHMARK.json says what the program prints.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var c struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, a set measures %v s per workload", c.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, program has %d and %d",
			len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if got := c.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		if got := c.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, m)
		}
	}
}

// TestStreamAuditDuplicate: a message delivered twice must fail the run. It
// once did not — sent-delivered wrapped to -1 and cancelled the +1 of the
// Seq mismatch.
func TestStreamAuditDuplicate(t *testing.T) {
	for _, c := range []struct {
		name                 string
		sent, delivered, bad uint64
		failed               int64
	}{
		{"exactly once", 10, 10, 0, 0},
		{"duplicate", 10, 11, 1, 2},
		{"lost", 10, 8, 0, 2},
	} {
		w := &streamWorld{}
		for i := range w.sinks {
			w.sinks[i] = &streamSink{}
		}
		w.sent[0] = c.sent
		w.sinks[0].delivered.Store(c.delivered)
		w.sinks[0].bad.Store(c.bad)
		r := newResult("stream_64b")
		w.audit(r)
		if r.Failed != c.failed {
			t.Errorf("%s: %d sent, %d delivered, %d bad: failed = %d, want %d", c.name, c.sent, c.delivered, c.bad, r.Failed, c.failed)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %d", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: %d", got)
	}
	if got := p99us([]int64{3000, 1000, 2000}); got != 3 {
		t.Errorf("p99us sorts its input: %v", got)
	}
}

func TestRefTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	intended, lateWake, earlyWake := t0.Add(5*time.Millisecond), t0.Add(9*time.Millisecond), t0.Add(time.Millisecond)
	if got := refTime(intended, lateWake); !got.Equal(lateWake) {
		t.Errorf("pacer woke late: latency must count from the wake-up, got %v", got.Sub(t0))
	}
	if got := refTime(intended, earlyWake); !got.Equal(intended) {
		t.Errorf("pacer on time: latency must count from the intended time, got %v", got.Sub(t0))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: rootSpan, Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: 10..60 covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "a.inner", Start: 15, End: 20, Parent: 1},
		{Name: "beside", Start: 100, End: 130, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	var total int64
	for _, s := range summarize(spans) {
		if s.Name == "a" && (s.Count != 1 || s.TotalNs != 30 || s.SelfNs != 25) {
			t.Errorf("summary of a: %+v", s)
		}
		total += s.SelfNs
	}
	if total != 40+25+30+30+5+30 {
		t.Errorf("self times sum to %d", total)
	}
}

func TestSplitTrace(t *testing.T) {
	got := splitTrace([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "x", "--trace=1", "--seed", "3", "-trace"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("splitTrace = %v, want %v", got, want)
	}
}
