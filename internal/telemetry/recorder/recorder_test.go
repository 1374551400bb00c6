package recorder

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderDigests(t *testing.T) {
	r := New(2)
	if r.NumPEs() != 2 {
		t.Fatalf("NumPEs = %d, want 2", r.NumPEs())
	}
	for i := 0; i < 1000; i++ {
		r.PE(0).Record(HistRoundTrip, int64(time.Microsecond)*int64(i+1))
	}
	r.PE(1).Record(HistBatchAge, int64(50*time.Microsecond))
	r.PE(0).SetUnacked(3)
	r.PE(0).SetUnacked(7)
	r.PE(0).SetUnacked(2)

	snap := r.Snapshot()
	if len(snap.PEs) != 2 {
		t.Fatalf("snapshot has %d PEs, want 2", len(snap.PEs))
	}
	rt := snap.PEs[0].Hists[HistRoundTrip.String()]
	if rt.Count != 1000 {
		t.Errorf("round-trip count = %d, want 1000", rt.Count)
	}
	// Quantiles are log2-bucket upper bounds, so p99 may overshoot the
	// exact max; only monotonicity between quantiles is guaranteed.
	if rt.P50Ns <= 0 || rt.P99Ns < rt.P50Ns || rt.MaxNs <= 0 {
		t.Errorf("quantiles not ordered: p50=%d p99=%d max=%d", rt.P50Ns, rt.P99Ns, rt.MaxNs)
	}
	if now, peak := snap.PEs[0].UnackedFrames, snap.PEs[0].UnackedPeak; now != 2 || peak != 7 {
		t.Errorf("unacked gauge = (%d, peak %d), want (2, 7)", now, peak)
	}
	if snap.PEs[1].Hists[HistBatchAge.String()].Count != 1 {
		t.Error("PE1 batch-age sample lost")
	}

	// The snapshot is the diagnostic-dump payload; it must round-trip
	// through JSON.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.PEs[0].Hists[HistRoundTrip.String()].Count != 1000 {
		t.Error("snapshot did not survive a JSON round trip")
	}
}

// Out-of-range PE indexes clamp rather than panic: the recorder is on
// hot paths where a bounds panic would take down the runtime.
func TestRecorderClamps(t *testing.T) {
	r := New(0) // clamped to 1
	r.PE(-1).Record(HistRoundTrip, 100)
	r.PE(99).Record(HistRoundTrip, 100)
	if got := r.PE(0).Hist(HistRoundTrip).Count(); got != 2 {
		t.Errorf("clamped records = %d, want 2", got)
	}
}

// Concurrent recording from many goroutines must be safe and lose
// nothing (the recorder is written from scheduler workers, the AM
// resolve path, and the watchdog simultaneously).
func TestRecorderConcurrent(t *testing.T) {
	r := New(1)
	const gs, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.PE(0).Record(HistRoundTrip, int64(i+1))
				r.PE(0).SetUnacked(int64(i % 16))
			}
		}()
	}
	wg.Wait()
	if got := r.PE(0).Hist(HistRoundTrip).Count(); got != gs*per {
		t.Errorf("count = %d, want %d", got, gs*per)
	}
	if _, peak := r.PE(0).Unacked(); peak != 15 {
		t.Errorf("unacked peak = %d, want 15", peak)
	}
}

// The recorder's Prometheus export keeps the series names the session
// collector used to own (am_round_trip, task_queue_wait,
// agg_flush_interval), with cumulative buckets in seconds.
func TestWritePrometheus(t *testing.T) {
	r := New(2)
	r.PE(0).Record(HistRoundTrip, 1500)
	r.PE(0).Record(HistRoundTrip, 3000)
	r.PE(1).Record(HistQueueWait, 0)
	r.PE(1).Record(HistBatchAge, 2048)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`# TYPE lamellar_am_round_trip_seconds histogram`,
		`lamellar_am_round_trip_seconds_count{pe="0"} 2`,
		`lamellar_am_round_trip_seconds_bucket{pe="0",le="+Inf"} 2`,
		`lamellar_am_round_trip_seconds_bucket{pe="0",le="2.047e-06"} 1`,
		`lamellar_am_round_trip_seconds_bucket{pe="0",le="4.095e-06"} 2`,
		`lamellar_task_queue_wait_seconds_count{pe="1"} 1`,
		`lamellar_agg_flush_interval_seconds_count{pe="1"} 1`,
		`lamellar_wire_rtt_seconds_count{pe="0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}
