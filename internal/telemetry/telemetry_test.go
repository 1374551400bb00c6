package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0},
		{-5, 0}, // negative clamps to the zero bucket
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{(1 << 62) - 1, 62},
		{1 << 62, 63},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		var h Histogram
		h.Record(c.ns)
		got := h.Buckets()
		for i, n := range got {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Record(%d): bucket[%d] = %d, want %d", c.ns, i, n, want)
			}
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if got := BucketUpper(0); got != 0 {
		t.Errorf("BucketUpper(0) = %d", got)
	}
	if got := BucketUpper(1); got != 1 {
		t.Errorf("BucketUpper(1) = %d", got)
	}
	if got := BucketUpper(10); got != 1023 {
		t.Errorf("BucketUpper(10) = %d", got)
	}
	for _, i := range []int{63, 64, 100} {
		if got := BucketUpper(i); got != math.MaxInt64 {
			t.Errorf("BucketUpper(%d) = %d, want MaxInt64", i, got)
		}
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(1)
	h.Record(math.MaxInt64)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != math.MaxInt64 {
		t.Errorf("max = %d", h.Max())
	}
	// Sum wraps uint64 arithmetic but must still hold 0+1+MaxInt64.
	if h.Sum() != uint64(math.MaxInt64)+1 {
		t.Errorf("sum = %d", h.Sum())
	}
	if q := h.Quantile(1.0); q != math.MaxInt64 {
		t.Errorf("p100 = %d, want MaxInt64", q)
	}
	if q := h.Quantile(0.34); q != 0 {
		t.Errorf("p34 = %d, want 0 (first of three observations)", q)
	}
	s := h.Summary()
	if s.Count != 3 || int64(s.Max) != math.MaxInt64 {
		t.Errorf("summary = %+v", s)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %d", q)
	}
	if s := h.Summary(); s.Count != 0 || s.String() != "n=0" {
		t.Errorf("empty summary = %+v (%q)", s, s.String())
	}
}

func TestRingWraparound(t *testing.T) {
	var r Ring
	r.init(8)
	if r.Cap() != 8 {
		t.Fatalf("cap = %d", r.Cap())
	}
	for i := 0; i < 100; i++ {
		r.push(Event{TS: int64(i)})
	}
	got := r.snapshot()
	if len(got) != 8 {
		t.Fatalf("snapshot len = %d, want 8", len(got))
	}
	// The ring keeps the newest 8 events, oldest first.
	for i, ev := range got {
		if want := int64(92 + i); ev.TS != want {
			t.Errorf("snapshot[%d].TS = %d, want %d", i, ev.TS, want)
		}
	}
	if r.dropped.Load() != 0 {
		t.Errorf("sequential pushes dropped %d events", r.dropped.Load())
	}
}

func TestRingConcurrentPush(t *testing.T) {
	c := NewCollector(1, 1<<10)
	const writers = 8
	const per = 5000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Emit(Event{TS: int64(g*per + i), Kind: EvTaskSpawn, PE: 0})
			}
		}(g)
	}
	wg.Wait()
	events := c.Events(0)
	if len(events) == 0 || len(events) > 1<<10 {
		t.Fatalf("snapshot len = %d", len(events))
	}
	if got := c.EventCount(0, EvTaskSpawn); got != writers*per {
		t.Errorf("event count = %d, want %d (counts survive wraparound)", got, writers*per)
	}
	// Every surviving slot holds a real payload from some writer.
	for _, ev := range events {
		if ev.TS < 0 || ev.TS >= writers*per {
			t.Errorf("snapshot holds corrupt event TS=%d", ev.TS)
		}
	}
}

func TestCollectorPEClamp(t *testing.T) {
	c := NewCollector(2, 16)
	c.Emit(Event{TS: 1, Kind: EvTaskSpawn, PE: 99})
	c.Emit(Event{TS: 2, Kind: EvTaskSpawn, PE: -3})
	if got := c.EventCount(0, EvTaskSpawn); got != 2 {
		t.Errorf("clamped events on PE0 = %d, want 2", got)
	}
}

func TestGlobalSessionOwnership(t *testing.T) {
	if Enabled() || C() != nil {
		t.Fatal("telemetry unexpectedly active at test start")
	}
	c1, owned1 := StartGlobal(2, 16)
	if !owned1 || !Enabled() || C() != c1 {
		t.Fatal("first StartGlobal must own and enable the session")
	}
	c2, owned2 := StartGlobal(4, 16)
	if owned2 || c2 != c1 {
		t.Fatal("second StartGlobal must join the active session")
	}
	StopGlobal(c2) // non-owner collector pointer is the owner's; this stops it
	if Enabled() || C() != nil {
		t.Fatal("StopGlobal with the active collector must end the session")
	}
	StopGlobal(nil) // must not panic
	if Now() != 0 {
		t.Errorf("Now() without a session = %d, want 0", Now())
	}
}

// goldenEvents is a fixed two-PE event set covering every event kind.
func goldenCollector() *Collector {
	c := NewCollector(2, 64)
	for _, ev := range []Event{
		{TS: 1000, Kind: EvTaskSpawn, PE: 0, Worker: -1},
		{TS: 2000, Dur: 500, Kind: EvTaskRun, PE: 0, Worker: 0},
		{TS: 2500, Kind: EvTaskSteal, PE: 0, Worker: 1, Arg1: 0, Arg2: 4},
		{TS: 2600, Dur: 150, Kind: EvTaskPark, PE: 0, Worker: 1},
		{TS: 3000, Kind: EvAMIssue, PE: 0, Worker: 0, Arg1: 1, Arg2: 7},
		{TS: 3100, Dur: 200, Kind: EvAMEncode, PE: 0, Worker: 0, Arg1: 1},
		{TS: 4000, Dur: 300, Kind: EvBatchFlush, Sub: uint8(FlushSize), PE: 0, Worker: TidRuntime, Arg1: 1, Arg2: 12},
		{TS: 4500, Dur: 250, Kind: EvFabricOp, Sub: 0, PE: 0, Worker: TidNet, Arg1: 1, Arg2: 64},
		{TS: 5000, Kind: EvGauge, Sub: uint8(GaugeQueueDepth), PE: 0, Arg1: 3},
		{TS: 100, Kind: EvBatchOpen, PE: 1, Worker: TidRuntime, Arg1: 0},
		{TS: 3500, Dur: 400, Kind: EvAMExec, PE: 1, Worker: TidRuntime, Arg1: 0},
		{TS: 4200, Kind: EvAMReturn, PE: 1, Worker: -1, Arg1: 0, Arg2: 7},
	} {
		c.Emit(ev)
	}
	return c
}

var goldenTrace = `{"displayTimeUnit":"ns","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"PE0"}},
{"name":"process_sort_index","ph":"M","pid":0,"tid":0,"args":{"sort_index":0}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"worker1"}},
{"name":"thread_name","ph":"M","pid":0,"tid":96,"args":{"name":"app"}},
{"name":"thread_name","ph":"M","pid":0,"tid":97,"args":{"name":"net"}},
{"name":"thread_name","ph":"M","pid":0,"tid":98,"args":{"name":"runtime"}},
{"name":"task.spawn","ph":"i","s":"t","pid":0,"tid":96,"ts":1.000},
{"name":"task.run","ph":"X","pid":0,"tid":0,"ts":2.000,"dur":0.500},
{"name":"task.steal","ph":"i","s":"t","pid":0,"tid":1,"ts":2.500,"args":{"victim":0,"batch":4}},
{"name":"task.park","ph":"X","pid":0,"tid":1,"ts":2.600,"dur":0.150},
{"name":"am.issue","ph":"i","s":"t","pid":0,"tid":0,"ts":3.000,"args":{"dst":1,"req":7}},
{"name":"am.encode","ph":"X","pid":0,"tid":0,"ts":3.100,"dur":0.200,"args":{"dst":1}},
{"name":"agg.flush","ph":"X","pid":0,"tid":98,"ts":4.000,"dur":0.300,"args":{"dst":1,"ops":12,"reason":"size"}},
{"name":"fabric.put","ph":"X","pid":0,"tid":97,"ts":4.500,"dur":0.250,"args":{"target":1,"bytes":64}},
{"name":"queue.depth","ph":"C","pid":0,"ts":5.000,"args":{"value":3}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"PE1"}},
{"name":"process_sort_index","ph":"M","pid":1,"tid":0,"args":{"sort_index":1}},
{"name":"thread_name","ph":"M","pid":1,"tid":96,"args":{"name":"app"}},
{"name":"thread_name","ph":"M","pid":1,"tid":98,"args":{"name":"runtime"}},
{"name":"agg.open","ph":"i","s":"t","pid":1,"tid":98,"ts":0.100,"args":{"dst":0}},
{"name":"am.exec","ph":"X","pid":1,"tid":98,"ts":3.500,"dur":0.400,"args":{"src":0}},
{"name":"am.return","ph":"i","s":"t","pid":1,"tid":96,"ts":4.200,"args":{"from":0,"req":7}}
]}
`

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCollector().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if got != goldenTrace {
		t.Errorf("trace output mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, goldenTrace)
	}
	// The exact bytes must also be valid JSON in the Chrome trace shape.
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 23 {
		t.Errorf("traceEvents = %d entries, want 23", len(doc.TraceEvents))
	}
	// Determinism: a second identical collector produces identical bytes.
	var buf2 bytes.Buffer
	if err := goldenCollector().WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("trace output is not deterministic")
	}
}

func TestWritePrometheus(t *testing.T) {
	c := goldenCollector()
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lamellar_events_total{pe="0",kind="task.run"} 1`,
		`lamellar_events_total{pe="1",kind="am.exec"} 1`,
		`lamellar_trace_dropped_total{pe="0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, out)
		}
	}
	// Latency histograms belong to the flight recorder, not the session.
	if strings.Contains(out, "_seconds") {
		t.Errorf("session dump carries histogram series:\n%s", out)
	}
}
