package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want uint32
	}{{50, 50}, {51, 60}, {90, 90}, {99, 100}, {100, 100}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %d", got)
	}
}

func TestGatedPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(i + 1)
		}
		return s
	}
	// 1000 samples: rank 990 has exactly 10 beyond it, so p99 stands.
	if v, pct := gatedPercentile(seq(1000), 99); v != 990 || pct != 99 {
		t.Errorf("n=1000: got %d at p%v, want 990 at p99", v, pct)
	}
	// 999 samples: rank 990 has 9 beyond; fall back to the rank with 10 beyond.
	if v, pct := gatedPercentile(seq(999), 99); v != 989 || pct >= 99 {
		t.Errorf("n=999: got %d at p%v, want 989 below p99", v, pct)
	}
	// 100 samples: the highest percentile with 10 beyond is p90.
	if v, pct := gatedPercentile(seq(100), 99); v != 90 || pct != 90 {
		t.Errorf("n=100: got %d at p%v, want 90 at p90", v, pct)
	}
	// Too few for any tail: never below the median.
	if v, _ := gatedPercentile(seq(12), 99); v != 6 {
		t.Errorf("n=12: got %d, want the median 6", v)
	}
}

func TestMedianOfEpochs(t *testing.T) {
	es := []epoch{
		{ops: 100, wall: time.Second},     // 100/s
		{ops: 100, wall: 2 * time.Second}, // 50/s
		{ops: 900, wall: time.Second},     // 900/s: an outlier the median ignores
	}
	if got := medianRate(es); got != 100 {
		t.Errorf("median of three = %v, want 100", got)
	}
	if got := medianRate(es[:2]); got != 75 {
		t.Errorf("median of two = %v, want 75", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(xs), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Two values: quantiles([10, 12], n=4) == [9.5, 11.0, 12.5].
	if got, want := quartileSpread([]float64{10, 12}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("two-value spread = %v, want %v", got, want)
	}
}

// A service that stalls for 60 ms must show up in the requests that came
// due during the stall: their latency runs from their due time, and the
// generator's lateness is reported.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const n, rate, stallAt = 400, 2000.0, 100 // 200 ms schedule
	stall := 60 * time.Millisecond
	res := openLoop(n, rate, func(i int, _ int64, done func(error)) {
		if i == stallAt {
			time.Sleep(stall)
		}
		done(nil) // instant service: any latency is waiting, not work
	})
	// The request due one interval after the stall began waited almost the
	// whole stall before it could even be issued.
	next := stallAt + 1
	if got := time.Duration(res.lat[next]); got < stall-5*time.Millisecond {
		t.Errorf("request %d latency %v, want about the %v stall charged from its due time", next, got, stall)
	}
	if got := time.Duration(res.lag[next]); got < stall-5*time.Millisecond {
		t.Errorf("request %d generator lag %v, want about %v", next, got, stall)
	}
	// A request due well before the stall was on time (within timer slack).
	if got := time.Duration(res.lat[stallAt/2]); got > 10*time.Millisecond {
		t.Errorf("request %d before the stall has latency %v", stallAt/2, got)
	}
	lag := slices.Clone(res.lag)
	slices.Sort(lag)
	if p99 := time.Duration(lag[len(lag)*99/100]); p99 < stall/2 {
		t.Errorf("gen_lag p99 = %v does not report the %v stall", p99, stall)
	}
	if res.errors != 0 || res.undrained != 0 {
		t.Errorf("errors=%d undrained=%d", res.errors, res.undrained)
	}
}

func TestOpenLoopBacklogGrowing(t *testing.T) {
	r := &openLoopResult{outMid: 100, outEnd: 900}
	if !r.backlogGrowing(200) {
		t.Error("900 outstanding after 100 at half time is a growing backlog")
	}
	r = &openLoopResult{outMid: 300, outEnd: 320}
	if r.backlogGrowing(200) {
		t.Error("a steady queue is not a growing backlog")
	}
}

// small returns each workload shrunk to run in about 0.2 s.
func small(name string, seed int64) workload {
	switch name {
	case "bulk_rw":
		b := newBulkRW(seed)
		b.updatesPerPE, b.warmUpdates = 20_000, 2_000
		return b
	case "kv_serve":
		k := newKVServe(seed)
		k.loRate, k.hiRate, k.warmRequests = 2000, 20_000, 500
		return k
	case "am_faulted":
		a := newAMFaulted(seed)
		a.epochAMs, a.warmAMs = 3000, 500
		return a
	default:
		s := newTaskStencil()
		s.steps, s.warmSteps = 50, 10
		return s
	}
}

func smokeOptions(t *testing.T) options {
	return options{seed: 3, seconds: 0.2, outDir: t.TempDir()}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r, err := runWorkload(wl.name, func() workload { return small(wl.name, 3) }, smokeOptions(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v (present %v), want > 0", d.name, v, ok)
				}
			}
		})
	}
}

// The checks are live: expecting one more completion than was issued must
// fail the run, on every workload that counts its own completions.
func TestWrongExpectedCountFails(t *testing.T) {
	for name, skew := range map[string]func(workload){
		"kv_serve":     func(w workload) { w.(*kvServe).skewExpect = 1 },
		"am_faulted":   func(w workload) { w.(*amFaulted).skewExpect = 1 },
		"task_stencil": func(w workload) { w.(*taskStencil).skewExpect = 1 },
	} {
		t.Run(name, func(t *testing.T) {
			mk := func() workload {
				w := small(name, 3)
				skew(w)
				return w
			}
			r, err := runWorkload(name, mk, smokeOptions(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.Correct || r.Failed == 0 || len(r.Problems) == 0 || r.Notes["fail_frac"] == 0 {
				t.Fatalf("a wrong expectation passed: correct=%v failed=%d problems=%v", r.Correct, r.Failed, r.Problems)
			}
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	o := smokeOptions(t)
	o.traced = true
	ladder, _, err := runLadder(o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runWorkload("task_stencil", func() workload { return small("task_stencil", 3) }, o, ladder)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Fatalf("problems: %v", r.Problems)
	}
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	raw, err := os.ReadFile(filepath.Join(o.outDir, "task_stencil.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			ID, Parent, Op uint64
			Name           string
			Start          int64 `json:"start_ns"`
			End            int64 `json:"end_ns"`
		}
		Counters []struct{ Label string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	ids := map[uint64]bool{}
	for _, s := range doc.Spans {
		ids[s.ID] = true
	}
	children := 0
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 && ids[s.Parent] {
			children++
		}
	}
	if len(doc.Spans) == 0 || children == 0 || len(doc.Counters) == 0 {
		t.Fatalf("%d spans, %d with a recorded parent, %d counter samples", len(doc.Spans), children, len(doc.Counters))
	}
}

func TestMETG50Interpolation(t *testing.T) {
	grains := []time.Duration{time.Microsecond, 4 * time.Microsecond, 16 * time.Microsecond}
	// Crossing half way between 4 µs and 16 µs in log space: 8 µs.
	if got := metg50(grains, []float64{0.1, 0.3, 0.7}); math.Abs(got-8) > 1e-9 {
		t.Errorf("metg50 = %v, want 8", got)
	}
	if got := metg50(grains, []float64{0.6, 0.7, 0.8}); got != 1 {
		t.Errorf("already efficient: metg50 = %v, want the smallest grain", got)
	}
	if got := metg50(grains, []float64{0.1, 0.2, 0.3}); got != 16 {
		t.Errorf("never efficient: metg50 = %v, want the largest grain", got)
	}
}

// BENCHMARK.json and the tables in metrics.go name the same workloads and
// metrics, in the same order, with the same units and directions.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), code has %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	same := func(kind string, got []m, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, g := range got {
			if (metricDef{g.Name, g.Unit, g.Better}) != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, want[i])
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// packOnOneCPU leaves every thread of the process — not only the caller —
// on the one CPU it reports, and that CPU was allowed before.
func TestPackOnOneCPU(t *testing.T) {
	before, err := affinity()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		packedOn = -1
		if err := setAffinity(before); err != nil {
			t.Error(err)
		}
	})
	if err := packOnOneCPU(); err != nil {
		t.Fatal(err)
	}
	var want cpuSet
	want[packedOn/64] = 1 << (packedOn % 64)
	if before[packedOn/64]&want[packedOn/64] == 0 {
		t.Fatalf("packed on cpu %d, which was not allowed before", packedOn)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		status, err := os.ReadFile(filepath.Join("/proc/self/task", task.Name(), "status"))
		if err != nil {
			continue // the thread has ended
		}
		if list := fmt.Sprintf("Cpus_allowed_list:\t%d\n", packedOn); !strings.Contains(string(status), list) {
			t.Errorf("thread %s is not confined to cpu %d", task.Name(), packedOn)
		}
	}
}
