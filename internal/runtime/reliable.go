package runtime

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/fabric"
	"repro/internal/slab"
	"repro/internal/telemetry"
	"repro/internal/telemetry/recorder"
)

// Reliable delivery layer. Every remote lamellae (sim/shmem/tcp) is
// wrapped in a relLamellae that layers a sequence/ack/retry protocol over
// the raw transport, so the runtime survives an adversarial fabric —
// dropped, duplicated, reordered, or delayed frames, transient socket
// failures, and (up to a configurable delivery timeout) link partitions —
// without crashing or corrupting AM semantics. The design mirrors how
// PGAS runtimes such as DART-MPI layer reliable one-sided semantics over
// an unreliable transport.
//
// Wire format: each inner-transport frame is prefixed with a 24-byte
// header — {kind u8, flags u8, pad[6], seq u64, cumAck u64} — keeping the
// body 8-aligned so the serde zero-copy aliasing fast path stays
// effective.
//
//   - kind wireData: seq is the per-(src,dst) stream sequence number,
//     cumAck piggybacks the sender's cumulative receive progress on the
//     reverse direction (all frames with seq < cumAck are acknowledged).
//   - kind wireAck: a standalone cumulative ack, sent when a direction
//     owes acks but has no reverse data to piggyback on. The wireFlagGap
//     flag marks acks sent while the receiver is holding out-of-order
//     frames behind a sequence gap — the sender's fast-retransmit signal.
//     Gap-flagged acks reuse the (otherwise meaningless) seq field as a
//     64-frame selective-ack bitmap: bit j set means frame cumAck+1+j is
//     held out of order, so the sender repairs only the actual holes
//     instead of re-sending whole flights.
//
// Sender: each (src,dst) stream is paced by an AIMD congestion window
// (wire_window.go): at most cwnd frames — and a proportional byte budget
// — may be in flight unacked. Frames beyond the window park on a
// per-stream pending queue; once the pending queue itself exceeds the
// window cap, send blocks, propagating backpressure into the aggregation
// layer instead of queueing unbounded slab frames. Clean cumulative acks
// grow the window (slow start, then additive); every retransmission or
// timeout halves it (once per recovery epoch). Retained frames are
// retransmitted on an RTT-adaptive timeout: ack round trips feed a
// per-stream Jacobson SRTT/RTTVAR estimator (Karn's rule excludes
// retransmitted frames), and the RTO is srtt+4·rttvar clamped to
// [WireRTOMin, RetryBackoffMax], doubling per attempt. A frame older
// than DeliveryTimeout is abandoned: the runtime reconciles its
// envelopes (futures resolve with a *DeliveryError, completion
// accounting is repaired) so nothing hangs and nothing panics.
//
// Receiver: frames apply strictly in sequence order. A frame below the
// expected sequence (or already buffered) is a redelivery and is
// discarded (dedup); a frame above it is buffered until the gap fills,
// bounded by WireOOOWindow — frames beyond the reorder window are
// dropped (the sender's RTO repairs them) so sustained reordering cannot
// grow memory. Acks are coalesced: a cumulative ack is owed after
// WireAckEvery in-order deliveries or WireAckHoldoff after the first
// undone delivery, whichever comes first, and any reverse-direction data
// frame piggybacks (and thereby suppresses) the standalone ack.
//
// Concurrency: onDeliver (called from transport progress goroutines)
// never takes a pair mutex — it only performs lock-free ack/flag updates
// and kicks the drain goroutine, which prunes acked frames, launches
// parked frames into the freed window, wakes blocked senders, and sends
// due standalone acks. The retry ticker is the backstop for
// retransmission, delivery timeouts, and missed ack deadlines.
//
// Fault plans (fabric.FaultPlan) are applied at transmission time, which
// exercises exactly this machinery deterministically in tests.

const (
	wireHeaderBytes = 24
	wireData        = 0xD1
	wireAck         = 0xA7
	// wireFlagGap (header flags byte) marks a standalone ack sent while
	// the receiver holds out-of-order frames behind a sequence gap. Only
	// gap-flagged duplicate acks count toward fast retransmit: an urgent
	// re-ack after a duplicate *delivery* repeats the cumulative ack too,
	// and counting those would let one spurious retransmission breed more
	// (the DSACK problem, solved here with one header bit).
	wireFlagGap = 0x01
)

// relFrame is one retained, possibly-retransmitted data frame. Frames and
// their slab buffers recycle through framePool once cumulatively acked, so
// the steady-state send path performs no heap allocation. gen increments
// on every recycle; frameRef snapshots it so any stale handle touching a
// recycled frame is caught immediately (see frameRef.frame).
//
// All stamps are telemetry.MonoNow monotonic nanos — wall-clock jumps
// must not re-arm (or forever defer) retransmissions.
type relFrame struct {
	seq        uint64
	buf        []byte // header + body, slab-owned
	firstNs    int64  // when send() accepted the frame (park or launch)
	sentNs     int64  // last transmission; 0 while parked
	deadlineNs int64  // next retransmission time
	backoffNs  int64
	attempts   int    // retransmissions (0 = only the initial transmission)
	gen        uint32 // bumped on recycle; use-after-recycle guard
}

var framePool = sync.Pool{New: func() any { return new(relFrame) }}

// frameRef pairs a pooled frame with the generation observed when the
// reference was taken. All later dereferences go through frame(), which
// panics if the frame was recycled out from under the reference — turning
// a silent use-after-recycle (retransmitting another stream's bytes) into
// an immediate, attributable failure under test.
type frameRef struct {
	fr  *relFrame
	gen uint32
}

func (e frameRef) frame() *relFrame {
	if e.fr.gen != e.gen {
		panic("lamellar: reliable-wire frame used after recycle")
	}
	return e.fr
}

// relPair is sender-side state for one (src,dst) stream.
type relPair struct {
	mu      sync.Mutex
	nextSeq uint64
	unacked []frameRef // transmitted, awaiting cumulative ack; ascending seq
	pending []frameRef // parked by the send window, not yet transmitted
	// inflightBytes is the byte total of unacked frames, checked against
	// the window's byte budget at admission.
	inflightBytes int
	win           sendWindow
	est           rttEstimator
	// wake is non-nil while senders block on pending-queue backpressure;
	// closed (and nilled) when the drain path frees space.
	wake chan struct{}

	// ackedTo is the cumulative ack received from the peer; updated
	// lock-free from delivery goroutines (which must never block on mu),
	// pruned by senders and the drain/retry goroutines.
	ackedTo atomic.Uint64
	// ackNs is the MonoNow stamp of the latest cumulative-ack advance —
	// the receive side of the RTT measurement.
	ackNs atomic.Int64
	// rtoNs is the current smoothed retransmission timeout (0 until the
	// estimator has a sample). Stored here so lock-free readers (watchdog,
	// stats) see it without taking mu.
	rtoNs atomic.Int64
	// needDrain flags that an ack advanced and the drain goroutine should
	// prune this pair and launch parked frames.
	needDrain atomic.Bool
	// dupAcks counts consecutive standalone acks that failed to advance
	// ackedTo — the peer repeating its cumulative ack because a gap is
	// blocking in-order delivery. At fastRetxDupAcks the drain goroutine
	// fast-retransmits the head unacked frame (fastRetx flag) instead of
	// waiting out its RTO.
	dupAcks  atomic.Int32
	fastRetx atomic.Bool
	// sackCum/sackBits mirror the latest gap-flagged ack's selective-ack
	// hint: bit j of sackBits means the peer holds frame sackCum+1+j out
	// of order. The pair is read through sackHint, which treats sackCum as
	// a seqlock version so a hint is never applied against the wrong cum —
	// mispairing would mark missing frames as held and starve their
	// repair. A hint that cannot be validated degrades to "no hint".
	sackCum  atomic.Uint64
	sackBits atomic.Uint64
}

// sackHint returns the selective-ack bitmap valid against acked (the
// caller's freshly loaded ackedTo), or 0 when no trustworthy hint exists.
// The writer (onDeliver) stores bits before cum; reading cum around the
// bits load therefore detects any concurrent replacement. sackCum only
// moves forward, so a stable read with cum == acked pairs the bits with
// the right base (same-cum rewrites only refresh the bitmap for the same
// episode). Absent or unverifiable hints are safe: the caller falls back
// to head-only repair and the RTO backstop.
func (p *relPair) sackHint(acked uint64) uint64 {
	for i := 0; i < 4; i++ {
		c := p.sackCum.Load()
		if c != acked {
			return 0
		}
		bits := p.sackBits.Load()
		if p.sackCum.Load() == c {
			return bits
		}
	}
	return 0
}

// fastRetxDupAcks is the duplicate-ack threshold for fast retransmit
// (TCP's classic 3): fewer, and transient reordering of standalone acks
// would trigger spurious repairs; more, and loss detection approaches the
// RTO anyway.
const fastRetxDupAcks = 3

// fastRetxBurst bounds how many presumed-lost frames one duplicate-ack
// signal may repair: enough to cover a dense loss burst inside the SACK
// horizon in one round trip, small enough that a stale hint cannot flood
// the link.
const fastRetxBurst = 16

// oooBody is an out-of-order frame body parked until its gap fills. The
// slab ref travels with the body so ownership transfers to the runtime
// when the frame finally delivers (or is released if it turns out to be a
// duplicate).
type oooBody struct {
	ref  slab.Ref
	body []byte
}

// relRecv is receiver-side state for one (receiver,sender) direction.
// The ack-coalescing fields are atomics because the sender-side transmit
// path reads and clears them (piggyback suppression) while holding its
// own pair mutex — recv.mu must stay a leaf lock that transmit never
// touches (onDeliver holds it while delivering, and delivery can re-enter
// the send path).
type relRecv struct {
	mu   sync.Mutex
	next atomic.Uint64      // all seqs < next delivered in order
	ooo  map[uint64]oooBody // out-of-order bodies awaiting the gap

	owed        atomic.Bool  // an ack is owed to the sender
	owedSinceNs atomic.Int64 // MonoNow of the first undone delivery (0 = none)
	urgent      atomic.Bool  // send the owed ack now (K reached, or dup seen)
	sinceAck    atomic.Int64 // in-order deliveries since the last ack left
	// oooCount mirrors len(ooo) for the lock-free ack path: sendAck sets
	// the wireFlagGap bit from it without taking mu.
	oooCount atomic.Int32
	// sackBits is the outgoing selective-ack bitmap, maintained under mu
	// (bit j ⇒ frame next+1+j is held in ooo), read lock-free by sendAck.
	// Frames held beyond next+64 are simply not advertised — the sender
	// conservatively treats them as missing.
	sackBits atomic.Uint64
}

// wireCounters aggregates one PE's reliable-wire activity.
type wireCounters struct {
	frames        atomic.Uint64 // data frames sent (sender)
	retries       atomic.Uint64 // frames retransmitted (sender)
	timeouts      atomic.Uint64 // frames abandoned after DeliveryTimeout (sender)
	parked        atomic.Uint64 // frames parked by the send window (sender)
	dupDropped    atomic.Uint64 // duplicate frames discarded (receiver)
	oooHeld       atomic.Uint64 // frames buffered out of order (receiver)
	oooDropped    atomic.Uint64 // frames dropped beyond the reorder window (receiver)
	acksSent      atomic.Uint64 // standalone ack frames sent (receiver)
	acksCoalesced atomic.Uint64 // per-frame acks avoided by coalescing/piggyback (receiver)
	faults        atomic.Uint64 // fault-plan injections on this PE's sends
}

// undeliverableFn reconciles an abandoned frame's envelopes.
type undeliverableFn func(src, dst int, payload []byte, cause error)

// relLamellae wraps an inner transport with the reliability protocol.
type relLamellae struct {
	inner   lamellae
	npes    int
	deliver deliverFn
	giveUp  undeliverableFn
	plan    *fabric.FaultPlan // nil = no fault injection

	retryInterval time.Duration
	backoffMax    time.Duration
	deliveryTO    time.Duration // <= 0: never give up

	// Flow-control configuration (Config.Wire*, env LAMELLAR_WIRE_*).
	windowFrames int   // frame-window cap; <= 0 disables windowing
	windowBytes  int   // byte-window cap at full frame window
	ackEvery     int   // coalesce: ack after K in-order deliveries
	ackHoldoffNs int64 // coalesce: or after this holdoff, whichever first
	oooWindow    uint64
	rtoMinNs     int64

	// rec, when non-nil, receives wire round-trip samples (HistWireRTT)
	// and seeds cold streams' RTO from the recorded digest.
	rec *recorder.Recorder

	pairs    [][]*relPair // [src][dst]
	recv     [][]*relRecv // [receiver][sender]
	counters []wireCounters

	sendMu sync.RWMutex // guards inner against send-after-close
	closed bool

	drainKick chan struct{} // capacity 1; coalesces drain wakeups
	stop      chan struct{}
	wg        sync.WaitGroup
}

const (
	minWindowFrames = 8
	minWindowBytes  = 64 << 10
)

func newRelLamellae(cfg Config, deliver deliverFn, giveUp undeliverableFn) *relLamellae {
	npes := cfg.PEs
	r := &relLamellae{
		npes:          npes,
		deliver:       deliver,
		giveUp:        giveUp,
		plan:          cfg.Faults,
		retryInterval: cfg.RetryInterval,
		backoffMax:    cfg.RetryBackoffMax,
		deliveryTO:    cfg.DeliveryTimeout,
		windowFrames:  cfg.WireWindowFrames,
		windowBytes:   cfg.WireWindowBytes,
		ackEvery:      cfg.WireAckEvery,
		ackHoldoffNs:  cfg.WireAckHoldoff.Nanoseconds(),
		rtoMinNs:      cfg.WireRTOMin.Nanoseconds(),
		pairs:         make([][]*relPair, npes),
		recv:          make([][]*relRecv, npes),
		counters:      make([]wireCounters, npes),
		drainKick:     make(chan struct{}, 1),
		stop:          make(chan struct{}),
	}
	if r.windowFrames < 0 {
		r.windowFrames = 0 // windowing disabled
	}
	if cfg.WireOOOWindow > 0 {
		r.oooWindow = uint64(cfg.WireOOOWindow)
	}
	for pe := 0; pe < npes; pe++ {
		r.pairs[pe] = make([]*relPair, npes)
		r.recv[pe] = make([]*relRecv, npes)
		for d := 0; d < npes; d++ {
			p := &relPair{}
			if r.windowFrames > 0 {
				p.win = newSendWindow(minWindowFrames, r.windowFrames)
			}
			r.pairs[pe][d] = p
			r.recv[pe][d] = &relRecv{}
		}
	}
	return r
}

// start installs the inner transport and launches the retry and drain
// goroutines.
func (r *relLamellae) start(inner lamellae) {
	r.inner = inner
	r.wg.Add(2)
	go r.retryLoop()
	go r.drainLoop()
}

func (r *relLamellae) name() LamellaeKind { return r.inner.name() }

// windowCaps reports the configured (frames, bytes) window caps, floored
// at the minimum window. Zero frames means windowing is disabled.
func (r *relLamellae) windowCaps() (capF, capB int) {
	if r.windowFrames <= 0 {
		return 0, 0
	}
	return max(r.windowFrames, minWindowFrames), max(r.windowBytes, minWindowBytes)
}

// admitLocked reports whether one more frame of frameLen bytes fits the
// stream's current congestion window. At least one frame is always
// admitted so an oversized frame cannot stall forever. Caller holds p.mu.
func (r *relLamellae) admitLocked(p *relPair, frameLen, capF, capB int) bool {
	if capF == 0 {
		return true // windowing disabled
	}
	inflight := len(p.unacked)
	if inflight == 0 {
		return true
	}
	cwnd := p.win.cwnd
	if cwnd > capF {
		cwnd = capF
	}
	if inflight >= cwnd {
		return false
	}
	// Byte budget scales with the frame window: cwnd/capF of the byte cap.
	budget := int(int64(capB) * int64(cwnd) / int64(capF))
	if budget < minWindowBytes {
		budget = minWindowBytes
	}
	return p.inflightBytes+frameLen <= budget
}

// startFlightLocked moves one frame into the in-flight set and transmits
// it. Caller holds p.mu.
func (r *relLamellae) startFlightLocked(p *relPair, src, dst int, e frameRef, nowNs int64) {
	fr := e.frame()
	rto := r.rtoFor(p, src)
	fr.backoffNs = rto
	fr.deadlineNs = nowNs + rto
	fr.sentNs = nowNs
	p.unacked = append(p.unacked, e)
	p.inflightBytes += len(fr.buf)
	r.transmit(src, dst, fr.buf, fr.seq)
}

// rtoFor reports the retransmission timeout for new flights on p: the
// stream's adaptive RTO when measured, else the recorded wire round-trip
// digest (2× p90), else the static retry floor.
func (r *relLamellae) rtoFor(p *relPair, src int) int64 {
	if ns := p.rtoNs.Load(); ns > 0 {
		return ns
	}
	if r.rec != nil {
		if q := int64(r.rec.PE(src).Hist(recorder.HistWireRTT).Quantile(0.90)); q > 0 {
			rto := 2 * q
			if rto < r.rtoMinNs {
				rto = r.rtoMinNs
			}
			if max := r.backoffMax.Nanoseconds(); rto > max {
				rto = max
			}
			return rto
		}
	}
	return r.retryInterval.Nanoseconds()
}

// send frames msg, retains it for retransmission, and transmits — or, when
// the stream's congestion window is full, parks it on the pending queue
// for the drain goroutine to launch as acks free the window. Once the
// pending queue itself exceeds the window cap, send blocks until space
// frees, propagating backpressure to the caller (the aggregation layer).
// The reliability layer always accepts the frame; transport errors
// surface later (retry) or as a delivery timeout, never as a panic.
func (r *relLamellae) send(src, dst int, msg []byte) error {
	p := r.pairs[src][dst]
	buf := slab.Get(wireHeaderBytes + len(msg))
	buf[0] = wireData
	for i := 1; i < 8; i++ {
		buf[i] = 0 // recycled slab memory: clear the header pad bytes
	}
	copy(buf[wireHeaderBytes:], msg)
	now := telemetry.MonoNow()
	capF, capB := r.windowCaps()
	p.mu.Lock()
	r.pruneLocked(p, src, capF)
	fr := framePool.Get().(*relFrame)
	fr.seq = p.nextSeq
	fr.buf = buf
	fr.firstNs = now
	fr.sentNs = 0
	fr.attempts = 0
	p.nextSeq++
	binary.LittleEndian.PutUint64(buf[8:], fr.seq)
	r.counters[src].frames.Add(1)
	r.emitWire(telemetry.EvWireSend, src, int64(dst), int64(fr.seq), 0)
	e := frameRef{fr: fr, gen: fr.gen}
	// Launch immediately only when nothing older is parked (FIFO) and the
	// window admits it; otherwise park for the drain path.
	if len(p.pending) == 0 && r.admitLocked(p, len(buf), capF, capB) {
		r.startFlightLocked(p, src, dst, e, now)
	} else {
		p.pending = append(p.pending, e)
		r.counters[src].parked.Add(1)
	}
	// Backpressure: block while the parked queue exceeds the window cap.
	// Acks arrive via transport goroutines that never take p.mu, so the
	// drain goroutine can always free space and wake us.
	for capF > 0 && len(p.pending) > capF {
		if p.wake == nil {
			p.wake = make(chan struct{})
		}
		wake := p.wake
		p.mu.Unlock()
		select {
		case <-wake:
		case <-r.stop:
			return nil
		}
		p.mu.Lock()
	}
	p.mu.Unlock()
	return nil
}

// drainPairLocked launches parked frames into whatever window space is
// available and wakes blocked senders once the pending queue is back
// under the cap. Caller holds p.mu.
func (r *relLamellae) drainPairLocked(p *relPair, src, dst int, nowNs int64, capF, capB int) {
	i := 0
	for i < len(p.pending) {
		fr := p.pending[i].frame()
		if !r.admitLocked(p, len(fr.buf), capF, capB) {
			break
		}
		r.startFlightLocked(p, src, dst, p.pending[i], nowNs)
		p.pending[i] = frameRef{}
		i++
	}
	if i > 0 {
		p.pending = append(p.pending[:0], p.pending[i:]...)
	}
	if p.wake != nil && (capF == 0 || len(p.pending) <= capF) {
		close(p.wake)
		p.wake = nil
	}
}

// unackedFrames reports how many data frames src currently retains
// awaiting acknowledgment (in flight or parked) across all destinations,
// and the age of the oldest such frame — the wire backlog the watchdog
// samples into the flight recorder. On a healthy loaded link the count
// hovers above zero but the oldest age stays at ack-latency scale; only a
// stuck link lets a frame's age grow.
func (r *relLamellae) unackedFrames(src int) (total int, oldest time.Duration) {
	now := telemetry.MonoNow()
	capF, _ := r.windowCaps()
	var oldestNs int64
	for dst := 0; dst < r.npes; dst++ {
		if dst == src {
			continue
		}
		p := r.pairs[src][dst]
		p.mu.Lock()
		r.pruneLocked(p, src, capF)
		total += len(p.unacked) + len(p.pending)
		if len(p.unacked) > 0 {
			if age := now - p.unacked[0].frame().firstNs; age > oldestNs {
				oldestNs = age
			}
		}
		if len(p.pending) > 0 {
			if age := now - p.pending[0].frame().firstNs; age > oldestNs {
				oldestNs = age
			}
		}
		p.mu.Unlock()
	}
	return total, time.Duration(oldestNs)
}

// windowStats sums src's live congestion-window state across all
// destinations: total window (frames), frames in flight, frames parked.
// Fed to the telemetry wire gauges.
func (r *relLamellae) windowStats(src int) (window, inflight, parked int) {
	for dst := 0; dst < r.npes; dst++ {
		if dst == src {
			continue
		}
		p := r.pairs[src][dst]
		p.mu.Lock()
		window += p.win.cwnd
		inflight += len(p.unacked)
		parked += len(p.pending)
		p.mu.Unlock()
	}
	return window, inflight, parked
}

// maxRTO reports the largest current adaptive RTO across src's streams
// (0 when no stream has RTT samples yet) — the watchdog folds it into its
// stall threshold so adaptive retransmission cannot outrun stall
// detection.
func (r *relLamellae) maxRTO(src int) int64 {
	var max int64
	for dst := 0; dst < r.npes; dst++ {
		if dst == src {
			continue
		}
		if ns := r.pairs[src][dst].rtoNs.Load(); ns > max {
			max = ns
		}
	}
	return max
}

// releaseFrame recycles one retained frame: slab buffer back to its size
// class, frame struct back to framePool with its generation bumped so any
// stale frameRef trips the guard. The caller must hold the only live
// reference (acked under p.mu, or abandoned after removal from unacked).
func (r *relLamellae) releaseFrame(e frameRef) {
	fr := e.frame()
	slab.Put(fr.buf)
	fr.buf = nil
	fr.gen++
	framePool.Put(fr)
}

// pruneLocked releases frames the peer has cumulatively acked back to the
// slab/frame pools, credits the congestion window for cleanly acked
// frames, and feeds Karn-valid round trips into the stream's RTT
// estimator. Caller holds p.mu.
func (r *relLamellae) pruneLocked(p *relPair, src, capF int) {
	acked := p.ackedTo.Load()
	ackNs := p.ackNs.Load()
	i, sampled := 0, false
	for i < len(p.unacked) && p.unacked[i].frame().seq < acked {
		fr := p.unacked[i].frame()
		p.inflightBytes -= len(fr.buf)
		if s := rttSampleNs(ackNs, fr.sentNs, fr.attempts); s > 0 {
			p.est.observe(s)
			sampled = true
			if r.rec != nil {
				r.rec.PE(src).Record(recorder.HistWireRTT, s)
			}
		}
		r.releaseFrame(p.unacked[i])
		p.unacked[i] = frameRef{}
		i++
	}
	if i > 0 {
		p.unacked = append(p.unacked[:0], p.unacked[i:]...)
		if capF > 0 {
			p.win.onAck(i, capF)
		}
	}
	if sampled {
		p.rtoNs.Store(p.est.rto(r.rtoMinNs, r.backoffMax.Nanoseconds()))
	}
	// TCP-style timer restart: an advancing cumulative ack proves the
	// stream is moving, so outstanding frames get a fresh RTO measured
	// from the ack, not from their (possibly much older) transmission.
	// Without this, per-frame timers fire spuriously whenever ack
	// coalescing batches the acknowledgment of a deep window — the
	// dominant retransmit source on a clean fabric. A genuine loss still
	// times out: the cumulative ack cannot advance past a missing frame,
	// so its refreshes stop one RTO before the head frame's timer fires.
	if i > 0 && len(p.unacked) > 0 {
		floor := ackNs + r.rtoFor(p, src)
		for _, e := range p.unacked {
			if fr := e.frame(); fr.deadlineNs < floor {
				fr.deadlineNs = floor
			}
		}
	}
}

// transmit pushes one frame (a data frame owned by a relFrame, or a
// standalone ack) through the fault plan and onto the inner transport,
// patching the piggybacked cumulative ack. Callers of data-frame
// transmissions hold the pair mutex, serializing access to fr.buf. The
// reverse-direction ack state it clears is all atomics — recv.mu is
// never taken here (lock-order: delivery can re-enter the send path).
func (r *relLamellae) transmit(src, dst int, buf []byte, seq uint64) {
	// Piggyback: tell dst how far src has received on the reverse
	// direction, and clear the owed-ack state it covers — the data frame
	// replaces the standalone ack (piggyback-preferred suppression).
	rs := r.recv[src][dst]
	binary.LittleEndian.PutUint64(buf[16:], rs.next.Load())
	rs.owed.Store(false)
	rs.urgent.Store(false)
	rs.owedSinceNs.Store(0)
	if n := rs.sinceAck.Swap(0); n > 0 {
		r.counters[src].acksCoalesced.Add(uint64(n))
	}

	d := r.plan.Decide(src, dst)
	if d.Kind != fabric.FaultNone {
		r.counters[src].faults.Add(1)
		r.emitWire(telemetry.EvWireFault, src, int64(dst), int64(seq), uint8(d.Kind))
	}
	switch d.Kind {
	case fabric.FaultDrop:
		return
	case fabric.FaultDup:
		r.innerSend(src, dst, buf)
		r.innerSend(src, dst, buf)
		return
	case fabric.FaultReorder, fabric.FaultDelay:
		// Defer a private copy so later frames overtake it; retransmits
		// may patch buf concurrently with the timer, so aliasing is not
		// safe. The copy comes from (and returns to) the slab: the inner
		// transports all copy-or-transmit synchronously, so the buffer is
		// ours again when innerSend returns.
		cp := slab.Get(len(buf))
		copy(cp, buf)
		time.AfterFunc(d.Delay, func() {
			r.innerSend(src, dst, cp)
			slab.Put(cp)
		})
		return
	}
	r.innerSend(src, dst, buf)
}

// innerSend hands a frame to the raw transport unless the layer closed.
// Transport errors are swallowed: the frame stays unacked and the retry
// path re-sends it (for TCP, after the broken connection was torn down
// and a re-dial becomes possible).
func (r *relLamellae) innerSend(src, dst int, buf []byte) {
	r.sendMu.RLock()
	defer r.sendMu.RUnlock()
	if r.closed {
		return
	}
	if err := r.inner.send(src, dst, buf); err != nil {
		diag.Warnf("wire", "PE%d→PE%d transport error (will retry): %v", src, dst, err)
	}
}

// onDeliver is the inner transport's delivery callback: it strips the
// reliability header, applies acks, dedups, restores order, and passes
// in-order bodies to the runtime. It must never block on a pair mutex —
// transport progress engines call it while senders may be stalled on
// transport backpressure — so all sender-side reactions (prune, window
// credit, launching parked frames) are deferred to the drain goroutine
// via lock-free flags.
//
// Buffer ownership: ref owns msg's backing slab buffer (zero Ref for
// non-slab buffers such as reassembled fragments). onDeliver either
// releases it (acks, duplicates, corrupt frames), parks it with an
// out-of-order body, or transfers it to the runtime along with the
// delivered body.
func (r *relLamellae) onDeliver(dst, src int, ref slab.Ref, msg []byte) {
	if len(msg) < wireHeaderBytes || (msg[0] != wireData && msg[0] != wireAck) {
		diag.Errorf("wire", "PE%d: corrupt wire frame from PE%d (%d bytes)", dst, src, len(msg))
		ref.Release()
		return
	}
	cum := binary.LittleEndian.Uint64(msg[16:])
	// The frame traveled src→dst, so its cumAck acknowledges the dst→src
	// stream, whose sender-side state lives at pairs[dst][src].
	pd := r.pairs[dst][src]
	if maxUpdate(&pd.ackedTo, cum) {
		pd.ackNs.Store(telemetry.MonoNow())
		pd.dupAcks.Store(0)
		pd.needDrain.Store(true)
		r.kickDrain()
	} else if msg[0] == wireAck && msg[1]&wireFlagGap != 0 && cum == pd.ackedTo.Load() {
		// A gap-flagged standalone ack that acknowledges nothing new is the
		// peer's loss signal: its receive stream is stuck at cum while later
		// frames keep arriving out of order. Two triggers arm fast
		// retransmit, mirroring TCP's dupthresh and SACK-based recovery:
		//
		//   - fastRetxDupAcks repeated acks (the classic count — robust
		//     when the peer holds only one or two frames), or
		//   - a single ack whose SACK bitmap already advertises
		//     fastRetxDupAcks+ frames held above the gap. Those frames
		//     departed after the missing one and arrived — the same
		//     evidence the dup-ack count accumulates, delivered at once.
		//     Essential here because OOO arrivals burst faster than the
		//     ack path runs: one urgent ack coalesces a whole burst, so
		//     the per-ack counter may never reach threshold.
		//
		// Piggybacked cums and unflagged re-acks count toward neither —
		// reverse data repeats the cum whenever the forward direction is
		// simply idle, and dedup re-acks repeat it without any gap.
		held := mathbits.OnesCount64(binary.LittleEndian.Uint64(msg[8:]))
		if pd.dupAcks.Add(1) == fastRetxDupAcks || held >= fastRetxDupAcks {
			pd.fastRetx.Store(true)
			pd.needDrain.Store(true)
			r.kickDrain()
		}
	}
	if msg[0] == wireAck {
		if msg[1]&wireFlagGap != 0 {
			// Stash the selective-ack hint; bits first so a reader pairing
			// them with the new cum sees at worst a subset.
			pd.sackBits.Store(binary.LittleEndian.Uint64(msg[8:]))
			pd.sackCum.Store(cum)
		}
		ref.Release()
		return
	}
	seq := binary.LittleEndian.Uint64(msg[8:])
	body := msg[wireHeaderBytes:]
	rs := r.recv[dst][src]
	rs.mu.Lock()
	next := rs.next.Load()
	switch {
	case seq < next:
		// Redelivery of something already consumed: dedup, and re-ack
		// urgently so the sender stops retransmitting.
		rs.mu.Unlock()
		ref.Release()
		r.counters[dst].dupDropped.Add(1)
		r.emitWire(telemetry.EvWireDedup, dst, int64(src), int64(seq), 0)
		rs.owed.Store(true)
		rs.urgent.Store(true)
		r.kickDrain()
		return
	case seq > next:
		if r.oooWindow > 0 && seq >= next+r.oooWindow {
			// Beyond the reorder window: drop rather than buffer, keeping
			// receiver memory flat under sustained reordering. The
			// sender's repair path re-sends the frame once the gap closes.
			rs.mu.Unlock()
			ref.Release()
			r.counters[dst].oooDropped.Add(1)
			r.emitWire(telemetry.EvWireOOODrop, dst, int64(src), int64(seq), 0)
			rs.owed.Store(true)
			rs.urgent.Store(true)
			r.kickDrain()
			return
		}
		if rs.ooo == nil {
			rs.ooo = make(map[uint64]oooBody)
		}
		if _, dup := rs.ooo[seq]; dup {
			rs.mu.Unlock()
			ref.Release()
			r.counters[dst].dupDropped.Add(1)
			r.emitWire(telemetry.EvWireDedup, dst, int64(src), int64(seq), 0)
			rs.owed.Store(true)
			rs.urgent.Store(true)
			r.kickDrain()
			return
		}
		rs.ooo[seq] = oooBody{ref: ref, body: body}
		rs.oooCount.Store(int32(len(rs.ooo)))
		if off := seq - next; off <= 64 {
			rs.sackBits.Store(rs.sackBits.Load() | 1<<(off-1))
		}
		rs.mu.Unlock()
		r.counters[dst].oooHeld.Add(1)
		// Re-ack urgently: every out-of-order arrival repeats the stuck
		// cumulative ack, and that duplicate-ack stream is what lets the
		// sender fast-retransmit the gap frame instead of waiting out its
		// RTO. Coalescing these would blind the loss detector.
		rs.owed.Store(true)
		rs.urgent.Store(true)
		r.kickDrain()
		return
	}
	// In order: deliver, then drain any buffered successors. Ownership of
	// each body's buffer transfers to the runtime here.
	r.deliver(dst, src, ref, body)
	next++
	delivered := int64(1)
	for {
		b, ok := rs.ooo[next]
		if !ok {
			break
		}
		delete(rs.ooo, next)
		r.deliver(dst, src, b.ref, b.body)
		next++
		delivered++
	}
	rs.next.Store(next)
	if delivered > 1 {
		rs.oooCount.Store(int32(len(rs.ooo)))
	}
	// The SACK bitmap is relative to next: delivering d frames shifts
	// every advertised hold d positions closer (Go defines >= 64-bit
	// shifts as zero, so a big drain just clears it). Frames held beyond
	// the 64-frame horizon drop out of the advertisement — conservative,
	// the sender re-sends them at worst.
	if sb := rs.sackBits.Load(); sb != 0 {
		rs.sackBits.Store(sb >> uint(delivered))
	}
	rs.mu.Unlock()
	// Ack coalescing: urgent after K deliveries, else owed on a holdoff.
	rs.owed.Store(true)
	if rs.sinceAck.Add(delivered) >= int64(r.ackEvery) {
		rs.urgent.Store(true)
		r.kickDrain()
	} else {
		r.ackOwedLater(rs)
	}
}

// ackOwedLater marks a non-urgent owed ack, stamping the holdoff start if
// this is the first undone delivery of the episode, and kicks the drain
// goroutine so it can arm the holdoff timer.
func (r *relLamellae) ackOwedLater(rs *relRecv) {
	rs.owed.Store(true)
	rs.owedSinceNs.CompareAndSwap(0, telemetry.MonoNow())
	r.kickDrain()
}

// kickDrain wakes the drain goroutine (coalescing: the kick channel holds
// at most one pending wakeup).
func (r *relLamellae) kickDrain() {
	select {
	case r.drainKick <- struct{}{}:
	default:
	}
}

// maxUpdate raises a to v if v is larger (lock-free monotonic max) and
// reports whether it advanced.
func maxUpdate(a *atomic.Uint64, v uint64) bool {
	for {
		cur := a.Load()
		if v <= cur {
			return false
		}
		if a.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// drainLoop is the ack-reaction goroutine: kicked (lock-free) by
// onDeliver, it prunes acked frames, launches parked frames into freed
// window space, wakes blocked senders, and sends standalone acks — urgent
// ones immediately, coalesced ones when their holdoff expires (it arms a
// timer for the earliest outstanding holdoff). Keeping this off the
// retry ticker matters: with sub-millisecond adaptive RTOs, ack latency
// must be bounded by the holdoff, not the ticker period, or clean links
// would retransmit spuriously.
func (r *relLamellae) drainLoop() {
	defer r.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-r.stop:
			return
		case <-r.drainKick:
		case <-timer.C:
		}
		// Earliest not-yet-due ack holdoff across all directions, as a
		// delay from now; -1 when none.
		wait := int64(-1)
		now := telemetry.MonoNow()
		capF, capB := r.windowCaps()
		for pe := 0; pe < r.npes; pe++ {
			for peer := 0; peer < r.npes; peer++ {
				if pe == peer {
					continue
				}
				p := r.pairs[pe][peer]
				if p.needDrain.Swap(false) {
					p.mu.Lock()
					r.pruneLocked(p, pe, capF)
					if p.fastRetx.Swap(false) {
						r.fastRetransmitLocked(p, pe, peer, now)
					}
					r.drainPairLocked(p, pe, peer, now, capF, capB)
					p.mu.Unlock()
				}
				rs := r.recv[pe][peer]
				if !rs.owed.Load() {
					continue
				}
				if rs.urgent.Load() {
					r.sendAck(pe, peer)
					continue
				}
				st := rs.owedSinceNs.Load()
				if st == 0 {
					continue
				}
				due := st + r.ackHoldoffNs - now
				if due <= 0 {
					r.sendAck(pe, peer)
				} else if wait < 0 || due < wait {
					wait = due
				}
			}
		}
		if wait >= 0 {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Duration(wait))
		}
	}
}

// fastRetransmitLocked re-sends the head unacked frame after the peer's
// duplicate-ack gap signal: fastRetxDupAcks standalone acks repeating the
// same cumulative ack while later frames keep landing out of order at the
// receiver. That detects the loss within ~one round trip of the drop; the
// RTO remains the backstop for tail loss (the last frames of a flight
// have no later arrivals to generate duplicate acks). The frame's timer
// restarts without doubling (a duplicate-ack signal is a fresh loss
// detection, not timer escalation), and the eventual ack is Karn-excluded
// from RTT sampling like any retransmission.
//
// Deliberately NOT charged to the congestion window: the duplicate-ack
// stream proves the link is flowing — later frames are arriving and
// being re-acked — so this is a single-frame repair of non-congestive
// damage (or mere reordering), not a sign the pipe shrank. Halving here
// lets a reorder-heavy fabric grind the window down on frames that were
// never lost. The window charge stays on the RTO path, where the silence
// of the timer is evidence the pipe is actually stalled. Caller holds
// p.mu, after pruning.
func (r *relLamellae) fastRetransmitLocked(p *relPair, src, dst int, nowNs int64) {
	acked := p.ackedTo.Load()
	bits := p.sackHint(acked)
	// hiHeld is the highest frame the peer advertises holding. Every
	// unacked frame below it that is not itself advertised was overtaken
	// by a later arrival — presume it lost and repair it now. Without a
	// hint, only the head frame (the one the cum ack is stuck on) is
	// repaired, the pre-SACK behavior.
	hiHeld := acked
	if bits != 0 {
		hiHeld = acked + 1 + uint64(mathbits.Len64(bits)-1)
	}
	resent := 0
	for _, e := range p.unacked {
		fr := e.frame()
		if fr.seq != acked && fr.seq > hiHeld {
			break // no evidence anything overtook these frames
		}
		if off := fr.seq - acked; off >= 1 && off <= 64 && bits&(1<<(off-1)) != 0 {
			continue // peer holds it
		}
		if fr.attempts > 0 && nowNs < fr.deadlineNs {
			// Already repaired and its timer is still running — a burst of
			// duplicate acks for the same gap must not become a retransmit
			// storm.
			continue
		}
		fr.attempts++
		fr.sentNs = nowNs
		fr.deadlineNs = nowNs + fr.backoffNs
		r.counters[src].retries.Add(1)
		r.emitWire(telemetry.EvWireRetry, src, int64(dst), int64(fr.seq), 1)
		r.transmit(src, dst, fr.buf, fr.seq)
		if resent++; resent >= fastRetxBurst {
			break // bound the repair burst; the next signal continues
		}
	}
	p.dupAcks.Store(0)
}

// retryLoop is the background ticker driving retransmissions,
// delivery-timeout give-ups, and (as a backstop to the drain goroutine)
// overdue standalone acks.
func (r *relLamellae) retryLoop() {
	defer r.wg.Done()
	tick := r.retryInterval / 8
	if r.rtoMinNs > 0 {
		// Adaptive RTOs can sit well below the static floor; tick at half
		// the RTO clamp so a due retransmission is never late by more than
		// ~half its timeout.
		if half := time.Duration(r.rtoMinNs / 2); half < tick {
			tick = half
		}
	}
	if tick < 100*time.Microsecond {
		tick = 100 * time.Microsecond
	}
	if tick > 2*time.Millisecond {
		tick = 2 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		now := telemetry.MonoNow()
		for src := 0; src < r.npes; src++ {
			for dst := 0; dst < r.npes; dst++ {
				if src == dst {
					continue
				}
				r.sweepPair(src, dst, now)
				rs := r.recv[src][dst]
				if rs.owed.Load() {
					if st := rs.owedSinceNs.Load(); rs.urgent.Load() ||
						(st != 0 && now-st >= r.ackHoldoffNs) {
						r.sendAck(src, dst)
					}
				}
			}
		}
	}
}

// sweepPair retransmits overdue frames of one stream (halving its
// congestion window once per recovery epoch), abandons frames — in
// flight or still parked — past the delivery timeout, and launches
// parked frames into whatever window space the sweep freed.
func (r *relLamellae) sweepPair(src, dst int, nowNs int64) {
	p := r.pairs[src][dst]
	capF, capB := r.windowCaps()
	p.mu.Lock()
	if len(p.unacked) == 0 && len(p.pending) == 0 {
		p.mu.Unlock()
		return
	}
	r.pruneLocked(p, src, capF)
	// Fresh selective-ack hint, if any: expired frames the peer advertises
	// holding get their timer re-armed instead of a retransmission —
	// re-sending them would be go-back-N waste when the link needs only
	// the actual holes.
	ackedNow := p.ackedTo.Load()
	sackBits := p.sackHint(ackedNow)
	var abandoned []frameRef
	keep := p.unacked[:0]
	for _, e := range p.unacked {
		fr := e.frame()
		if nowNs < fr.deadlineNs {
			keep = append(keep, e)
			continue
		}
		if r.deliveryTO > 0 && nowNs-fr.firstNs >= r.deliveryTO.Nanoseconds() {
			abandoned = append(abandoned, e)
			p.inflightBytes -= len(fr.buf)
			r.counters[src].timeouts.Add(1)
			r.emitWire(telemetry.EvWireTimeout, src, int64(dst), int64(fr.seq), 0)
			continue
		}
		if off := fr.seq - ackedNow; off >= 1 && off <= 64 && sackBits&(1<<(off-1)) != 0 {
			fr.deadlineNs = nowNs + fr.backoffNs
			keep = append(keep, e)
			continue
		}
		fr.attempts++
		fr.backoffNs *= 2
		if max := r.backoffMax.Nanoseconds(); fr.backoffNs > max {
			fr.backoffNs = max
		}
		fr.deadlineNs = nowNs + fr.backoffNs
		fr.sentNs = nowNs
		if capF > 0 {
			p.win.onLoss(fr.seq, p.nextSeq)
		}
		r.counters[src].retries.Add(1)
		r.emitWire(telemetry.EvWireRetry, src, int64(dst), int64(fr.seq), 0)
		r.transmit(src, dst, fr.buf, fr.seq)
		keep = append(keep, e)
	}
	for i := len(keep); i < len(p.unacked); i++ {
		p.unacked[i] = frameRef{}
	}
	p.unacked = keep
	// Parked frames age toward the delivery timeout too — under a
	// partition the window never opens, and a frame that was never
	// transmitted must still resolve its futures rather than hang.
	if r.deliveryTO > 0 && len(p.pending) > 0 {
		keepP := p.pending[:0]
		for _, e := range p.pending {
			fr := e.frame()
			if nowNs-fr.firstNs >= r.deliveryTO.Nanoseconds() {
				abandoned = append(abandoned, e)
				r.counters[src].timeouts.Add(1)
				r.emitWire(telemetry.EvWireTimeout, src, int64(dst), int64(fr.seq), 0)
				continue
			}
			keepP = append(keepP, e)
		}
		for i := len(keepP); i < len(p.pending); i++ {
			p.pending[i] = frameRef{}
		}
		p.pending = keepP
	}
	r.drainPairLocked(p, src, dst, nowNs, capF, capB)
	p.mu.Unlock()
	// Reconcile outside the pair lock: the handler touches world state
	// (futures, completion accounting) and must not nest under it.
	for _, e := range abandoned {
		fr := e.frame()
		attempts := fr.attempts
		if fr.sentNs != 0 {
			attempts++ // count the initial transmission
		}
		err := &DeliveryError{
			Src: src, Dst: dst,
			Attempts: attempts,
			Elapsed:  time.Duration(nowNs - fr.firstNs),
		}
		// Distinguish "never arrived" from "arrived, but the reverse-path
		// wire ack was lost". The receiver's cumulative counter advances
		// strictly in order, so seq < next proves the frame was delivered
		// and its envelopes processed — the futures it carried were
		// resolved by real returns/acks, and reconciling it again would
		// double-credit completion counters (completed > issued), which
		// wedges finalize's quiescence sum forever (ISSUE 10). Only the
		// sender-side ack stream is broken; retire the frame quietly.
		if fr.seq < r.recv[dst][src].next.Load() {
			diag.Warnf("wire", "PE%d→PE%d frame %d timed out after delivery (lost wire acks); skipping reconciliation", src, dst, fr.seq)
		} else {
			diag.Errorf("wire", "%s", err.Error())
			if r.giveUp != nil {
				r.giveUp(src, dst, fr.buf[wireHeaderBytes:], err)
			}
		}
		// The reconciler's zero-copy decode may alias the payload, so the
		// abandoned buffer goes to the GC instead of back to the slab; the
		// frame struct itself still recycles. Give-ups are the exceptional
		// path — allocation here is irrelevant.
		fr.buf = nil
		fr.gen++
		framePool.Put(fr)
	}
}

// sendAck emits a standalone cumulative ack pe→peer, consuming the owed
// state (a delivery racing in after the clear simply re-arms it). The ack
// buffer comes from the slab and returns to it once the inner transport
// has copied or written it (a stack array would escape through the
// transport interface call and allocate per ack).
func (r *relLamellae) sendAck(pe, peer int) {
	rs := r.recv[pe][peer]
	rs.owed.Store(false)
	rs.urgent.Store(false)
	rs.owedSinceNs.Store(0)
	if n := rs.sinceAck.Swap(0); n > 1 {
		r.counters[pe].acksCoalesced.Add(uint64(n - 1))
	}
	buf := slab.Get(wireHeaderBytes)
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = wireAck
	// Snapshot (cum, sackBits) under mu: the bitmap is relative to next,
	// and a drain advancing next between two lock-free reads would shift
	// the pairing — the ack would advertise frames ABOVE the truly held
	// ones, and the sender would defer repairing frames that are actually
	// missing. rs.mu is a leaf lock and callers (drain/retry goroutines)
	// hold nothing here.
	rs.mu.Lock()
	cum := rs.next.Load()
	if len(rs.ooo) > 0 {
		buf[1] = wireFlagGap
		binary.LittleEndian.PutUint64(buf[8:], rs.sackBits.Load())
	}
	rs.mu.Unlock()
	binary.LittleEndian.PutUint64(buf[16:], cum)
	r.counters[pe].acksSent.Add(1)
	r.emitWire(telemetry.EvWireAck, pe, int64(peer), int64(cum), 0)
	d := r.plan.Decide(pe, peer)
	switch d.Kind {
	case fabric.FaultDrop:
		// A lost ack re-arms via the sender's retransmit → dedup → owed.
		r.counters[pe].faults.Add(1)
		slab.Put(buf)
		return
	case fabric.FaultReorder, fabric.FaultDelay:
		r.counters[pe].faults.Add(1)
		time.AfterFunc(d.Delay, func() {
			r.innerSend(pe, peer, buf)
			slab.Put(buf)
		})
		return
	}
	r.innerSend(pe, peer, buf)
	slab.Put(buf)
}

// emitWire records one reliable-wire telemetry event.
func (r *relLamellae) emitWire(kind telemetry.EventKind, pe int, arg1, arg2 int64, sub uint8) {
	if !telemetry.Enabled() {
		return
	}
	c := telemetry.C()
	if c == nil {
		return
	}
	c.Emit(telemetry.Event{
		TS: c.Now(), Kind: kind, Sub: sub,
		PE: int32(pe), Worker: telemetry.TidNet,
		Arg1: arg1, Arg2: arg2,
	})
}

// close stops the retry/drain machinery, then the inner transport. Any
// frames still unacked were already delivered (the runtime only closes
// after distributed quiescence) — only their acks were in flight. Senders
// blocked on window backpressure observe the stop channel and return.
func (r *relLamellae) close() {
	close(r.stop)
	r.wg.Wait()
	r.sendMu.Lock()
	r.closed = true
	r.sendMu.Unlock()
	r.inner.close()
}

// DeliveryError reports a wire frame the reliable layer abandoned after
// exhausting its delivery timeout — a partitioned or persistently lossy
// link. Futures waiting on AMs carried by the frame resolve with this
// error; fire-and-forget AMs are marked complete so WaitAll cannot hang.
type DeliveryError struct {
	// Src and Dst identify the link.
	Src, Dst int
	// Attempts is how many transmissions were made (0: the frame never
	// left the send window before the timeout, e.g. under a partition
	// with a saturated window).
	Attempts int
	// Elapsed is how long delivery was attempted.
	Elapsed time.Duration
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("lamellar: delivery PE%d→PE%d timed out after %d attempts over %v",
		e.Src, e.Dst, e.Attempts, e.Elapsed.Round(time.Millisecond))
}
