package runtime

import (
	"testing"
	"time"
)

// The AIMD window and RTT estimator are pure state machines; these tests
// drive them with scripted ack/loss traces so every control-law edge
// (slow start, additive increase, halve-once-per-epoch, floors, clamps,
// Karn exclusion) is pinned independently of the concurrent wire
// machinery that feeds them in production.

func TestSendWindowSlowStartDoublesPerRoundTrip(t *testing.T) {
	w := newSendWindow(8, 256)
	if w.cwnd != 8 {
		t.Fatalf("initial cwnd = %d, want 8", w.cwnd)
	}
	// Slow start: +1 per acked frame — acking a full window doubles it.
	for _, want := range []int{16, 32, 64, 128, 256} {
		w.onAck(w.cwnd, 256)
		if w.cwnd != want {
			t.Fatalf("cwnd after acking a window = %d, want %d", w.cwnd, want)
		}
	}
	// At the cap, further acks must not grow past it.
	w.onAck(1000, 256)
	if w.cwnd != 256 {
		t.Fatalf("cwnd grew past cap: %d", w.cwnd)
	}
}

func TestSendWindowHalvesOncePerRecoveryEpoch(t *testing.T) {
	w := newSendWindow(8, 256)
	w.onAck(120, 256) // slow start to 128
	if w.cwnd != 128 {
		t.Fatalf("setup: cwnd = %d, want 128", w.cwnd)
	}
	// First loss: frames 0..199 are in flight (nextSeq 200). Halve, with
	// the pre-loss window as the slow-start re-ramp target.
	if !w.onLoss(10, 200) {
		t.Fatal("first loss did not halve")
	}
	if w.cwnd != 64 || w.ssthresh != 128 {
		t.Fatalf("after loss: cwnd=%d ssthresh=%d, want 64/128", w.cwnd, w.ssthresh)
	}
	// More timeouts from the same flight (seq < 200): same congestion
	// event, no further penalty.
	for _, seq := range []uint64{11, 57, 199} {
		if w.onLoss(seq, 200) {
			t.Fatalf("loss of seq %d in the same epoch halved again", seq)
		}
	}
	if w.cwnd != 64 {
		t.Fatalf("cwnd after same-epoch losses = %d, want 64", w.cwnd)
	}
	// A loss at/after the epoch marker is a new congestion event.
	if !w.onLoss(200, 240) {
		t.Fatal("new-epoch loss did not halve")
	}
	if w.cwnd != 32 {
		t.Fatalf("cwnd after second epoch = %d, want 32", w.cwnd)
	}
}

func TestSendWindowRecoveryThenAdditiveIncrease(t *testing.T) {
	w := newSendWindow(8, 256)
	w.onAck(56, 256) // slow start to 64
	w.onLoss(0, 60)  // halve to 32; re-ramp target (ssthresh) stays 64
	if w.cwnd != 32 || w.ssthresh != 64 {
		t.Fatalf("setup: cwnd=%d ssthresh=%d, want 32/64", w.cwnd, w.ssthresh)
	}
	// Recovery: slow start back to the pre-loss operating point — one
	// acked window of frames doubles 32 → 64.
	w.onAck(32, 256)
	if w.cwnd != 64 {
		t.Fatalf("cwnd after recovery window = %d, want 64", w.cwnd)
	}
	// Past ssthresh: congestion avoidance, one full window of acks buys
	// exactly +1.
	w.onAck(63, 256)
	if w.cwnd != 64 {
		t.Fatalf("cwnd grew before a full window was acked: %d", w.cwnd)
	}
	w.onAck(1, 256)
	if w.cwnd != 65 {
		t.Fatalf("cwnd after 64 acked frames = %d, want 65", w.cwnd)
	}
	// A second loss during steady state lowers the re-ramp target too.
	w.onLoss(100, 160)
	if w.cwnd != 32 || w.ssthresh != 65 {
		t.Fatalf("second epoch: cwnd=%d ssthresh=%d, want 32/65", w.cwnd, w.ssthresh)
	}
}

func TestSendWindowFloorAndClamp(t *testing.T) {
	w := newSendWindow(8, 256)
	// Repeated distinct-epoch losses must never drop below the floor.
	for i := uint64(0); i < 10; i++ {
		w.onLoss(i*100, (i+1)*100)
	}
	if w.cwnd != 8 {
		t.Fatalf("cwnd under repeated loss = %d, want floor 8", w.cwnd)
	}
	// Acks grow the window up to the cap and no further.
	w.onAck(1000, 16)
	if w.cwnd != 16 {
		t.Fatalf("cwnd after acks under cap 16 = %d, want 16", w.cwnd)
	}
}

func TestRTTEstimator(t *testing.T) {
	var e rttEstimator
	if e.rto(0, time.Hour.Nanoseconds()) != 0 {
		t.Fatal("rto with no samples should be 0 (unmeasured)")
	}
	ms := time.Millisecond.Nanoseconds()
	e.observe(ms)
	// First sample: srtt = s, rttvar = s/2, rto = s + 4·(s/2) = 3s.
	if got := e.rto(0, time.Hour.Nanoseconds()); got != 3*ms {
		t.Fatalf("rto after first sample = %v, want %v",
			time.Duration(got), time.Duration(3*ms))
	}
	// A long run of identical samples converges rttvar toward 0 and srtt
	// toward the sample; the 2·srtt tail-loss floor then dominates the
	// collapsing srtt+4·rttvar term.
	for i := 0; i < 200; i++ {
		e.observe(ms)
	}
	if got := e.rto(0, time.Hour.Nanoseconds()); got != 2*ms {
		t.Fatalf("converged rto = %v, want 2·srtt = %v",
			time.Duration(got), time.Duration(2*ms))
	}
	// Clamps.
	if got := e.rto(10*ms, time.Hour.Nanoseconds()); got != 10*ms {
		t.Fatalf("rto below floor not clamped: %v", time.Duration(got))
	}
	if got := e.rto(0, ms/2); got != ms/2 {
		t.Fatalf("rto above ceiling not clamped: %v", time.Duration(got))
	}
	// Ignore non-positive samples.
	before := e.srttNs
	e.observe(0)
	e.observe(-5)
	if e.srttNs != before {
		t.Fatal("non-positive samples moved the estimator")
	}
}

func TestRTTSampleKarnExclusion(t *testing.T) {
	// Clean frame: the round trip is attributable.
	if got := rttSampleNs(150, 100, 0); got != 50 {
		t.Fatalf("clean sample = %d, want 50", got)
	}
	// Karn's rule: a retransmitted frame's ack is ambiguous — no sample.
	if got := rttSampleNs(150, 100, 1); got != 0 {
		t.Fatalf("retransmitted frame sampled: %d", got)
	}
	// Never-transmitted (parked) or time-inverted stamps: no sample.
	if got := rttSampleNs(150, 0, 0); got != 0 {
		t.Fatalf("unsent frame sampled: %d", got)
	}
	if got := rttSampleNs(100, 100, 0); got != 0 {
		t.Fatalf("zero round trip sampled: %d", got)
	}
	if got := rttSampleNs(90, 100, 0); got != 0 {
		t.Fatalf("negative round trip sampled: %d", got)
	}
}
