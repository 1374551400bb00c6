package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/slab"
)

// Integration tests for the wire flow-control machinery: the AIMD window
// bounding in-flight frames under loss, the bounded reorder buffer
// keeping receiver memory flat under reordering, and ack coalescing
// bounding standalone-ack traffic. All drive a relLamellae over the
// synchronous loopback transport (loopLam) with a deterministic fault
// plan, the same harness the alloc budgets use.

// wireTestConfig is the shared base: 2 PEs, tight retransmission so
// fault repair happens at test speed, generous delivery timeout so
// nothing is abandoned.
func wireTestConfig() Config {
	cfg := Config{
		PEs: 2, WorkersPerPE: 1, Lamellae: LamellaeShmem,
		RetryInterval:   2 * time.Millisecond,
		RetryBackoffMax: 20 * time.Millisecond,
		DeliveryTimeout: 30 * time.Second,
		Faults:          fabric.NewFaultPlan(0),
	}.withDefaults()
	return cfg
}

// Tentpole invariant: under 10% frame drop the sender never holds more
// than the window cap in flight, every frame still arrives exactly once,
// and the machinery visibly exercised both parking (window full) and
// retransmission (drops repaired).
func TestWireWindowNeverExceededUnderDrop(t *testing.T) {
	cfg := wireTestConfig()
	cfg.WireWindowFrames = 16
	cfg.Faults = fabric.NewFaultPlan(7).SetDefault(fabric.LinkFaults{DropRate: 0.10})
	var delivered atomic.Uint64
	r := newRelLamellae(cfg, func(dst, src int, ref slab.Ref, msg []byte) {
		delivered.Add(1)
		ref.Release()
	}, nil)
	inner := &loopLam{r: r}
	r.start(inner)
	defer r.close()

	const frames = 3000
	capF := r.capF
	if capF != 16 {
		t.Fatalf("window cap = %d, want 16", capF)
	}
	// Sample the in-flight invariant concurrently with the sender.
	var violations atomic.Uint64
	stopSample := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		p := r.pairs[0][1]
		for {
			select {
			case <-stopSample:
				return
			default:
			}
			p.mu.Lock()
			if len(p.unacked) > capF {
				violations.Add(1)
			}
			p.mu.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	payload := make([]byte, 256)
	for i := 0; i < frames; i++ {
		r.send(0, 1, payload)
	}
	// Drops repair on the retransmission timeout; wait for full delivery.
	deadline := time.Now().Add(20 * time.Second)
	for delivered.Load() < frames {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d frames", delivered.Load(), frames)
		}
		time.Sleep(time.Millisecond)
	}
	close(stopSample)
	<-sampleDone
	if n := delivered.Load(); n != frames {
		t.Fatalf("delivered %d frames, want exactly %d (dedup failed)", n, frames)
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("in-flight frames exceeded the window cap %d times", n)
	}
	wc := &r.counters[0]
	if wc.retries.Load() == 0 {
		t.Fatal("10%% drop plan produced no retransmissions")
	}
	if wc.parked.Load() == 0 {
		t.Fatal("a 16-frame window over 3000 sends never parked a frame")
	}
}

// Satellite: the receiver's reorder buffer is bounded. Under heavy
// reordering frames beyond WireOOOWindow are dropped (and repaired by
// retransmission) instead of buffered, so receiver memory stays flat —
// and delivery remains exactly-once and in-order-complete. Run with
// -race: the sampler races the delivery path deliberately.
func TestWireReorderBufferBounded(t *testing.T) {
	cfg := wireTestConfig()
	cfg.WireWindowFrames = 64
	cfg.WireOOOWindow = 8
	cfg.Faults = fabric.NewFaultPlan(11).SetDefault(fabric.LinkFaults{
		ReorderRate: 0.25, Delay: 2 * time.Millisecond,
	})
	var delivered atomic.Uint64
	r := newRelLamellae(cfg, func(dst, src int, ref slab.Ref, msg []byte) {
		delivered.Add(1)
		ref.Release()
	}, nil)
	inner := &loopLam{r: r}
	r.start(inner)
	defer r.close()

	var maxHeld atomic.Int64
	stopSample := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		rs := r.recv[1][0]
		for {
			select {
			case <-stopSample:
				return
			default:
			}
			rs.mu.Lock()
			held := int64(len(rs.ooo))
			rs.mu.Unlock()
			for {
				cur := maxHeld.Load()
				if held <= cur || maxHeld.CompareAndSwap(cur, held) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	const frames = 1500
	payload := make([]byte, 64)
	for i := 0; i < frames; i++ {
		r.send(0, 1, payload)
	}
	deadline := time.Now().Add(20 * time.Second)
	for delivered.Load() < frames {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d frames", delivered.Load(), frames)
		}
		time.Sleep(time.Millisecond)
	}
	close(stopSample)
	<-sampleDone
	if n := delivered.Load(); n != frames {
		t.Fatalf("delivered %d frames, want exactly %d", n, frames)
	}
	if held := maxHeld.Load(); held > 8 {
		t.Fatalf("reorder buffer held %d frames, bound is 8", held)
	}
	if r.counters[1].oooDropped.Load() == 0 {
		t.Fatal("heavy reordering with an 8-frame bound never dropped beyond the window")
	}
}

// Satellite: ack coalescing bounds standalone-ack traffic on a one-way
// stream to roughly deliveries/WireAckEvery (plus holdoff stragglers),
// with the avoided acks visible in the coalesced counter.
func TestWireAckCoalescingBounds(t *testing.T) {
	cfg := wireTestConfig()
	cfg.WireAckEvery = 8
	var delivered atomic.Uint64
	r := newRelLamellae(cfg, func(dst, src int, ref slab.Ref, msg []byte) {
		delivered.Add(1)
		ref.Release()
	}, nil)
	inner := &loopLam{r: r}
	r.start(inner)
	defer r.close()

	const frames = 100
	payload := make([]byte, 128)
	for i := 0; i < frames; i++ {
		r.send(0, 1, payload) // one-way: acks must go standalone
	}
	// Wait until the sender's retained frames fully drain — i.e. every
	// owed ack was actually sent and applied.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, _ := r.unackedFrames(0); n == 0 {
			break
		}
		if time.Now().After(deadline) {
			n, _ := r.unackedFrames(0)
			t.Fatalf("%d frames still unacked", n)
		}
		time.Sleep(time.Millisecond)
	}
	if n := delivered.Load(); n != frames {
		t.Fatalf("delivered %d frames, want %d", n, frames)
	}
	wc := &r.counters[1]
	acks := wc.acksSent.Load()
	if acks == 0 {
		t.Fatal("one-way traffic produced no standalone acks")
	}
	// 100 deliveries at ack-every-8 is ~13 acks; slack for holdoff
	// stragglers when the sender pauses. Without coalescing this is 100.
	if acks > 25 {
		t.Fatalf("acksSent = %d for %d one-way frames, want <= 25 (coalescing broken)", acks, frames)
	}
	if co := wc.acksCoalesced.Load(); co < 50 {
		t.Fatalf("acksCoalesced = %d, want >= 50 of %d deliveries", co, frames)
	}
}

// Satellite: with bidirectional traffic the reverse data frames carry
// the cumulative ack (piggyback-preferred), so standalone acks all but
// vanish even though every frame is acknowledged.
func TestWireAckPiggybackSuppression(t *testing.T) {
	cfg := wireTestConfig()
	cfg.WireAckEvery = 8
	cfg.WireAckHoldoff = 5 * time.Millisecond // tight loop below never pauses this long
	var delivered atomic.Uint64
	r := newRelLamellae(cfg, func(dst, src int, ref slab.Ref, msg []byte) {
		delivered.Add(1)
		ref.Release()
	}, nil)
	inner := &loopLam{r: r}
	r.start(inner)
	defer r.close()

	const rounds = 200
	payload := make([]byte, 128)
	for i := 0; i < rounds; i++ {
		r.send(0, 1, payload)
		r.send(1, 0, payload) // piggybacks the ack for the frame above
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n0, _ := r.unackedFrames(0)
		n1, _ := r.unackedFrames(1)
		if n0 == 0 && n1 == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames still unacked: %d + %d", n0, n1)
		}
		time.Sleep(time.Millisecond)
	}
	// Each direction would owe ~rounds/8 urgent standalone acks without
	// piggybacking; the reverse data must have suppressed nearly all.
	for pe := 0; pe < 2; pe++ {
		if acks := r.counters[pe].acksSent.Load(); acks > 5 {
			t.Fatalf("PE%d sent %d standalone acks under bidirectional traffic, want <= 5", pe, acks)
		}
	}
}

// The selective-ack hint must only ever be applied against the exact
// cumulative ack it arrived with: a mispaired bitmap would mark missing
// frames as held and starve their repair. sackHint validates the pairing
// and degrades to "no hint" otherwise.
func TestSackHintPairing(t *testing.T) {
	p := &relPair{}
	p.sackBits.Store(0b101) // peer holds cum+1 and cum+3
	p.sackCum.Store(7)
	if got := p.sackHint(7); got != 0b101 {
		t.Fatalf("sackHint(7) = %b, want 101", got)
	}
	// The caller's ackedTo moved past the hint's base: the bit positions
	// no longer mean anything — the hint must vanish, not shift.
	if got := p.sackHint(9); got != 0 {
		t.Fatalf("sackHint against a newer cum = %b, want 0 (stale hint)", got)
	}
	if got := p.sackHint(3); got != 0 {
		t.Fatalf("sackHint against an older cum = %b, want 0", got)
	}
	// A same-cum refresh (more frames landed out of order) supersedes.
	p.sackBits.Store(0b1101)
	if got := p.sackHint(7); got != 0b1101 {
		t.Fatalf("refreshed sackHint(7) = %b, want 1101", got)
	}
}

// Tentpole: a dropped frame is repaired by the duplicate-ack/SACK fast
// retransmit path within round-trip time scales, not by the timer. With
// the RTO pushed far out of reach, the stream can only keep moving if
// gap-flagged acks (carrying the selective-ack bitmap of frames held
// above the hole) trigger retransmission of the missing frame — so any
// retry observed before the deadline is attributable to fast retransmit.
func TestWireFastRetransmitRepairsWithoutTimer(t *testing.T) {
	cfg := wireTestConfig()
	cfg.RetryInterval = 30 * time.Second
	cfg.WireRTOMin = 30 * time.Second
	cfg.Faults = fabric.NewFaultPlan(13).SetDefault(fabric.LinkFaults{DropRate: 0.05})
	var delivered atomic.Uint64
	r := newRelLamellae(cfg, func(dst, src int, ref slab.Ref, msg []byte) {
		delivered.Add(1)
		ref.Release()
	}, nil)
	inner := &loopLam{r: r}
	r.start(inner)
	defer r.close()

	const frames = 800
	payload := make([]byte, 128)
	for i := 0; i < frames; i++ {
		r.send(0, 1, payload)
	}
	// ~40 of 800 frames drop; every one of them blocks all later in-order
	// deliveries until repaired. A dropped frame in the unreachable tail
	// (no later arrivals to generate gap acks) legitimately needs the
	// timer, so allow a small tail shortfall — everything before it can
	// only have been repaired by fast retransmit.
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < frames-8 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d frames with the timer parked — fast retransmit dead",
				delivered.Load(), frames)
		}
		time.Sleep(time.Millisecond)
	}
	if r.counters[0].retries.Load() == 0 {
		t.Fatal("5%% drop repaired with zero retransmissions")
	}
}

// Satellite: the delayed-ack holdoff bounds ack latency for sparse
// traffic — a single frame with no successors must still be acked (and
// its retained buffer released) promptly, not after a retry-scale delay.
func TestWireAckHoldoffBoundsSparseAckLatency(t *testing.T) {
	cfg := wireTestConfig()
	cfg.WireAckEvery = 8
	cfg.WireAckHoldoff = time.Millisecond
	// Make a retransmission-driven ack impossible to mistake for the
	// holdoff path: first retry would land far outside the bound.
	cfg.RetryInterval = 5 * time.Second
	cfg.WireRTOMin = 5 * time.Second
	r := newRelLamellae(cfg, func(dst, src int, ref slab.Ref, msg []byte) {
		ref.Release()
	}, nil)
	inner := &loopLam{r: r}
	r.start(inner)
	defer r.close()

	start := time.Now()
	r.send(0, 1, []byte("lone frame"))
	deadline := start.Add(2 * time.Second)
	for {
		if n, _ := r.unackedFrames(0); n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("single frame never acked (holdoff path dead)")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("single-frame ack took %v, want holdoff-scale latency", elapsed)
	}
	if acks := r.counters[1].acksSent.Load(); acks != 1 {
		t.Fatalf("acksSent = %d for one lone frame, want exactly 1", acks)
	}
	if r.counters[0].retries.Load() != 0 {
		t.Fatal("lone frame was retransmitted; ack came from the retry path, not the holdoff")
	}
}
