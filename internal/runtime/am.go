package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/scheduler"
	"repro/internal/serde"
	"repro/internal/slab"
	"repro/internal/telemetry"
	"repro/internal/telemetry/recorder"
)

// encPool recycles envelope body encoders on the launch/return/ack hot
// path; enqueue copies the body into the destination queue, so the
// encoder goes straight back to the pool after the call.
var encPool = sync.Pool{New: func() any { return serde.NewEncoder(256) }}

// maxPooledEncoderBytes bounds retained capacity so a one-off huge
// payload does not pin memory in a pool or queue spare.
const maxPooledEncoderBytes = 1 << 20

func getEncoder(w *World) *serde.Encoder {
	e := encPool.Get().(*serde.Encoder)
	e.Reset()
	e.Ctx = w
	return e
}

// putEncoder returns an encoder to the pool, reporting whether it was
// retained. Encoders grown past maxPooledEncoderBytes (a chunked
// collective or bulk payload) are dropped so one large message cannot
// permanently inflate pooled memory.
func putEncoder(e *serde.Encoder) bool {
	if e.Cap() > maxPooledEncoderBytes {
		return false
	}
	e.Ctx = nil
	encPool.Put(e)
	return true
}

// ActiveMessage is the interface user AM types implement — the analogue of
// the paper's LamellarAM trait with `async fn exec(self)`. Exec runs on
// the destination PE inside its thread pool; ctx identifies the executing
// world and the originating PE. The returned value (nil for none) is
// serialized back when the AM was launched with a *Return variant; if the
// returned value is itself an ActiveMessage it executes on the origin PE
// and its own result resolves the origin's future (the paper's "returning
// AMs" capability).
//
// AM types must be registered with RegisterAM (hand-written codec) or
// RegisterAMGob (reflection-based), the stand-in for the #[AmData]/#[am]
// procedural macros. Do not mutate an AM value after launching it: the
// local fast path executes the same instance without serialization, just
// as Rust's move semantics would.
type ActiveMessage interface {
	Exec(ctx *Context) any
}

// Context carries the execution environment into an AM handler.
type Context struct {
	// World is the executing PE's world handle (Lamellar::world).
	World *World
	// Src is the PE that launched this AM.
	Src int
	// span is the causal trace context of the executing AM (zero when no
	// telemetry session stamped the launch). Sub-AMs launched through the
	// Context methods below inherit it as their parent.
	span telemetry.SpanContext
}

// CurrentPE reports the PE executing the handler (Lamellar::current_pe).
func (c *Context) CurrentPE() int { return c.World.MyPE() }

// NumPEs reports the world size.
func (c *Context) NumPEs() int { return c.World.NumPEs() }

// ExecAM launches a sub-AM from inside a handler, causally linked to the
// executing AM's span (prefer this over c.World.ExecAM in handlers so
// cross-PE traces keep their parent links).
func (c *Context) ExecAM(pe int, am ActiveMessage) {
	c.World.launchFrom(pe, am, c.span)
}

// ExecAMCallback launches a causally-linked sub-AM with a return
// callback; see World.ExecAMCallback.
func (c *Context) ExecAMCallback(pe int, am ActiveMessage, cb func(any, error)) {
	c.World.execAMCallbackFrom(pe, am, cb, c.span)
}

// ExecAMReturn launches a causally-linked sub-AM returning a future; see
// World.ExecAMReturn.
func (c *Context) ExecAMReturn(pe int, am ActiveMessage) *scheduler.Future[any] {
	return c.World.execAMReturnFrom(pe, am, c.span)
}

// RegisterAM registers an AM type with a hand-written codec. *T must
// implement ActiveMessage, serde.Marshaler and serde.Unmarshaler.
func RegisterAM[T any](name string) {
	var zero T
	if _, ok := any(&zero).(ActiveMessage); !ok {
		panic(fmt.Sprintf("runtime: *%T does not implement ActiveMessage", zero))
	}
	serde.Register[T](name)
}

// RegisterAMGob registers an AM type using the gob fallback codec.
func RegisterAMGob[T any](name string) {
	var zero T
	if _, ok := any(&zero).(ActiveMessage); !ok {
		panic(fmt.Sprintf("runtime: *%T does not implement ActiveMessage", zero))
	}
	serde.RegisterGob[T](name)
}

// RegisterAMPooled registers a high-rate AM type whose decoded instances
// recycle through a pool: after the handler runs and any return value is
// serialized, the runtime hands the instance back via serde.Recycle. *T
// must additionally implement serde.Recyclable, clearing every reference
// (in particular zero-copy views of the receive buffer) on reset.
func RegisterAMPooled[T any](name string) {
	var zero T
	if _, ok := any(&zero).(ActiveMessage); !ok {
		panic(fmt.Sprintf("runtime: *%T does not implement ActiveMessage", zero))
	}
	serde.RegisterPooled[T](name)
}

// Envelope kinds on the wire.
const (
	envExec   = 0 // uvarint reqID (0 = fire-and-forget), EncodeAny(am)
	envReturn = 1 // uvarint reqID, bool isErr, (string | EncodeAny(val))
	envAck    = 2 // uvarint count of completed AMs

	// envFlagTrace marks an envelope carrying a causal trace context:
	// two uvarints (traceID, spanID) immediately follow the kind byte,
	// before the kind's normal payload. Only set while a telemetry
	// session is live, so the untraced wire format is byte-identical to
	// PR 2-6. Because the context rides inside the envelope body, it
	// survives reliable-wire retransmission and dedup for free — the
	// retained frame bytes are what get retransmitted.
	envFlagTrace = 0x80
)

// newSpan mints a child span of parent, or the zero SpanContext when no
// telemetry session is live (the untraced fast path: no ID allocation,
// no extra envelope bytes).
func newSpan(parent telemetry.SpanContext) telemetry.SpanContext {
	if !telemetry.Enabled() {
		return telemetry.SpanContext{}
	}
	sp := telemetry.SpanContext{Trace: parent.Trace, Span: telemetry.NewSpanID()}
	if sp.Trace == 0 {
		sp.Trace = sp.Span // root span: the trace is named after it
	}
	return sp
}

// ----- launch API -------------------------------------------------------

// ExecAM launches am on pe without expecting a return value; completion is
// observable through WaitAll (world.exec_am_pe).
func (w *World) ExecAM(pe int, am ActiveMessage) {
	w.launchFrom(pe, am, telemetry.SpanContext{})
}

// launchFrom launches a fire-and-forget AM as a child of parent.
func (w *World) launchFrom(pe int, am ActiveMessage, parent telemetry.SpanContext) {
	w.launchSpan(pe, am, 0, newSpan(parent), parent)
}

// ExecAMCallback launches am on pe and invokes cb exactly once with the
// handler's return value (or error). This is the allocation-free core the
// future-returning variants build on: cb may be a long-lived pooled
// callback (the array aggregation layer dispatches every batch through
// one), so the steady-state cost is a map insert that reuses buckets
// freed by earlier deletes. The callback runs on whichever goroutine
// processes the return envelope; it must not block.
func (w *World) ExecAMCallback(pe int, am ActiveMessage, cb func(any, error)) {
	w.execAMCallbackFrom(pe, am, cb, telemetry.SpanContext{})
}

func (w *World) execAMCallbackFrom(pe int, am ActiveMessage, cb func(any, error), parent telemetry.SpanContext) {
	sp := newSpan(parent)
	w.launchSpan(pe, am, w.registerReturn(pe, cb, sp), sp, parent)
}

// registerReturn records cb as the completion of a new request to pe and
// returns the request ID. The issue is stamped unconditionally:
// resolution feeds the always-on flight recorder's round-trip digest
// (watchdog input), not just a live telemetry session. One monotonic
// clock read per return-style AM; fire-and-forget AMs pay nothing.
func (w *World) registerReturn(pe int, cb func(any, error), sp telemetry.SpanContext) uint64 {
	req := w.nextReq.Add(1)
	issueNs := telemetry.MonoNow()
	w.retMu.Lock()
	w.returns[req] = retEntry{cb: cb, issueNs: issueNs, span: sp, dst: int32(pe)}
	w.retMu.Unlock()
	return req
}

// ExecAMReturn launches am on pe and returns a future resolving with the
// handler's return value.
func (w *World) ExecAMReturn(pe int, am ActiveMessage) *scheduler.Future[any] {
	return w.execAMReturnFrom(pe, am, telemetry.SpanContext{})
}

func (w *World) execAMReturnFrom(pe int, am ActiveMessage, parent telemetry.SpanContext) *scheduler.Future[any] {
	p, f := scheduler.NewPromise[any](w.pool)
	w.execAMCallbackFrom(pe, am, func(v any, err error) {
		if err != nil {
			p.CompleteErr(err)
		} else {
			p.Complete(v)
		}
	}, parent)
	return f
}

// ExecAMAll launches am on every PE in the world (world.exec_am_all).
func (w *World) ExecAMAll(am ActiveMessage) {
	for pe := 0; pe < w.NumPEs(); pe++ {
		w.launchFrom(pe, am, telemetry.SpanContext{})
	}
}

// ExecAMAllReturn launches am on every PE and resolves with the return
// values indexed by PE.
func (w *World) ExecAMAllReturn(am ActiveMessage) *scheduler.Future[[]any] {
	fs := make([]*scheduler.Future[any], w.NumPEs())
	for pe := 0; pe < w.NumPEs(); pe++ {
		fs[pe] = w.ExecAMReturn(pe, am)
	}
	return scheduler.All(w.pool, fs)
}

// ExecTyped launches an AM expecting a return of type R.
func ExecTyped[R any](w *World, pe int, am ActiveMessage) *scheduler.Future[R] {
	return scheduler.Map(w.ExecAMReturn(pe, am), func(v any) R {
		if v == nil {
			var zero R
			return zero
		}
		return v.(R)
	})
}

// launchSpan routes an AM to pe as span sp (child of parent). req 0
// means no return expected.
func (w *World) launchSpan(pe int, am ActiveMessage, req uint64, sp, parent telemetry.SpanContext) {
	w.noteIssue(pe, req, sp, parent)
	if pe == w.pe {
		// Local fast path: no serialization, mirroring the SMP Lamellae and
		// the local arm of exec_am_* on distributed lamellae.
		w.pool.Submit(func() {
			v, err := w.runHandlerSpan(am, w.pe, sp)
			w.completed.Add(1)
			if req != 0 {
				w.resolveReturn(w.pe, req, v, err)
			}
		})
		return
	}
	w.enqueueAM(pe, req, am, sp)
}

// noteIssue counts one launched AM and, with a live session, emits its
// issue event.
func (w *World) noteIssue(pe int, req uint64, sp, parent telemetry.SpanContext) {
	w.issued.Add(1)
	if telemetry.Enabled() {
		if c := telemetry.C(); c != nil {
			c.Emit(telemetry.Event{
				TS: c.Now(), Kind: telemetry.EvAMIssue,
				PE: int32(w.pe), Worker: telemetry.TidRuntime,
				Arg1: int64(pe), Arg2: int64(req),
				Flow: sp.Span, Parent: parent.Span,
			})
		}
	}
}

// enqueueAM encodes an exec envelope into pe's aggregation queue.
func (w *World) enqueueAM(pe int, req uint64, am ActiveMessage, sp telemetry.SpanContext) {
	q := w.queues[pe]
	var tc *telemetry.Collector
	var t0 int64
	if telemetry.Enabled() {
		if tc = telemetry.C(); tc != nil {
			t0 = tc.Now()
		}
	}
	q.mu.Lock()
	q.openLocked(t0)
	w.putExecLocked(pe, q, req, am, sp, tc, t0)
	w.appendedLocked(pe, q, tc)
}

// putExecLocked encodes an exec envelope for am directly into q's open
// batch, skipping an intermediate body encoder and its extra copy —
// significant for multi-megabyte aggregated array payloads. The length
// prefix is fixed-width so it can be patched once the body size is known.
// With a live session it emits the encode span starting at t0. Caller
// holds q.mu and counts the envelope.
func (w *World) putExecLocked(pe int, q *aggQueue, req uint64, am ActiveMessage, sp telemetry.SpanContext,
	tc *telemetry.Collector, t0 int64) {
	w.envSent.Add(1)
	mark := q.enc.Len()
	q.enc.PutU32(0) // body length, patched below
	q.enc.Align(8)
	bodyStart := q.enc.Len()
	if sp.Valid() {
		q.enc.PutU8(envExec | envFlagTrace)
		q.enc.PutUvarint(sp.Trace)
		q.enc.PutUvarint(sp.Span)
	} else {
		q.enc.PutU8(envExec)
	}
	q.enc.PutUvarint(req)
	q.enc.Ctx = w
	if err := serde.EncodeAny(q.enc, am); err != nil {
		q.mu.Unlock()
		panic(fmt.Sprintf("runtime: AM type not registered: %v", err))
	}
	binary.LittleEndian.PutUint32(q.enc.Bytes()[mark:], uint32(q.enc.Len()-bodyStart))
	if tc != nil {
		tc.Emit(telemetry.Event{
			TS: t0, Dur: tc.Now() - t0, Kind: telemetry.EvAMEncode,
			PE: int32(w.pe), Worker: telemetry.TidRuntime, Arg1: int64(pe),
			Flow: sp.Span,
		})
	}
}

// Frame is a higher layer's open record in a destination queue, such as
// the array layer's shared element-op frame. Records append to it under
// the queue's lock (AppendFrame), and it goes on the wire as one exec
// envelope of the batch it ships in.
type Frame interface {
	// SealFrame runs with the queue locked when the queue ships, whatever
	// the reason. The frame detaches from its owner, whose next append
	// opens a new one, and returns the AM to encode and the callback its
	// return resolves through.
	SealFrame(reason telemetry.FlushReason) (am ActiveMessage, cb func(any, error))
}

// AppendFrame appends one record to a higher layer's open frame for pe.
// fill runs with pe's queue locked, so it must not block or call into the
// World; it reports the frame it opened (nil when it appended to one the
// queue already holds), the estimated bytes it added and whether the
// frame reached its op cap. The queue then ships its batch: on the op cap
// with reason FlushOps, or with FlushSize once its envelopes and open
// frames together reach AggThresholdBytes.
func (w *World) AppendFrame(pe int, fill func() (opened Frame, bytes int, full bool)) {
	q := w.queues[pe]
	var tc *telemetry.Collector
	if telemetry.Enabled() {
		tc = telemetry.C()
	}
	q.mu.Lock()
	q.openLocked(0)
	opened, n, full := fill()
	if opened != nil {
		q.frames = append(q.frames, opened)
	}
	q.frameBytes += n
	switch {
	case full:
		w.shipLocked(pe, q, telemetry.FlushOps, tc)
	case q.enc.Len()+q.frameBytes >= w.env.cfg.AggThresholdBytes:
		w.shipLocked(pe, q, telemetry.FlushSize, tc)
	default:
		q.mu.Unlock()
	}
}

// sealLocked encodes q's open frames into its batch as exec envelopes,
// each registered for its return like an ExecAMCallback launch. The lock
// order is q.mu, then retMu. Caller holds q.mu.
func (w *World) sealLocked(dst int, q *aggQueue, reason telemetry.FlushReason, tc *telemetry.Collector) {
	for i, f := range q.frames {
		am, cb := f.SealFrame(reason)
		sp := newSpan(telemetry.SpanContext{})
		req := w.registerReturn(dst, cb, sp)
		w.noteIssue(dst, req, sp, telemetry.SpanContext{})
		var t0 int64
		if tc != nil {
			t0 = tc.Now()
		}
		w.putExecLocked(dst, q, req, am, sp, tc, t0)
		q.count++
		q.frames[i] = nil
	}
	q.frames, q.frameBytes = q.frames[:0], 0
}

// openLocked stamps the batch-open time when q is empty. The stamp is
// taken even without a session (t0 == 0): the flush records batch age
// into the always-on recorder either way. Caller holds q.mu.
func (q *aggQueue) openLocked(t0 int64) {
	if !q.empty() {
		return
	}
	if t0 == 0 {
		t0 = telemetry.MonoNow()
	}
	q.openNs = t0
}

// appendedLocked counts the envelope just appended to dst's queue q and
// releases q.mu, shipping the batch once it crossed the aggregation
// threshold. Caller holds q.mu.
func (w *World) appendedLocked(dst int, q *aggQueue, tc *telemetry.Collector) {
	q.count++
	if q.enc.Len()+q.frameBytes < w.env.cfg.AggThresholdBytes {
		q.mu.Unlock()
		return
	}
	w.shipLocked(dst, q, telemetry.FlushSize, tc)
}

// shipLocked seals q's open frames, detaches its batch (swapping in the
// spare encoder), releases q.mu, and puts the batch on the wire. Caller
// holds q.mu and q is not empty.
func (w *World) shipLocked(dst int, q *aggQueue, reason telemetry.FlushReason, tc *telemetry.Collector) {
	w.sealLocked(dst, q, reason, tc)
	out, envs, openNs := q.enc, q.count, q.openNs
	q.enc = q.takeSpareLocked()
	q.count = 0
	q.mu.Unlock()
	w.noteBatchFlush(dst, reason, envs, openNs, tc)
	w.sendBatch(dst, out.Bytes())
	q.putSpare(out)
}

// sendBatch hands one wire batch to the transport. Remote transports sit
// behind the reliability layer, which always accepts the frame (failures
// surface later through retry exhaustion, never here).
func (w *World) sendBatch(dst int, batch []byte) {
	if err := w.env.lam.send(w.pe, dst, batch); err != nil {
		diag.Errorf("am", "PE%d: send to PE%d failed: %v", w.pe, dst, err)
	}
}

// runHandler executes an AM with panic containment, converting panics to
// errors so origin-side futures and wait_all cannot hang.
func (w *World) runHandler(am ActiveMessage, src int) (any, error) {
	return w.runHandlerCtx(am, w.ctx(src))
}

// runHandlerSpan is runHandler for a span-carrying execution: sub-AMs
// launched through the handler's Context inherit sp as their parent. The
// span-free path (no session at launch) reuses the world's prebuilt
// contexts and allocates nothing.
func (w *World) runHandlerSpan(am ActiveMessage, src int, sp telemetry.SpanContext) (any, error) {
	if !sp.Valid() {
		return w.runHandlerCtx(am, w.ctx(src))
	}
	ctx := Context{World: w, Src: src, span: sp}
	return w.runHandlerCtx(am, &ctx)
}

func (w *World) runHandlerCtx(am ActiveMessage, ctx *Context) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("lamellar: AM %T panicked on PE%d: %v", am, w.pe, r)
			diag.Errorf("am", "%v", err)
		}
	}()
	v = am.Exec(ctx)
	return v, nil
}

// resolveReturn completes the origin-side future for req. If the returned
// value is itself an AM, it executes here (on the origin) first.
func (w *World) resolveReturn(src int, req uint64, v any, err error) {
	w.retMu.Lock()
	e, ok := w.returns[req]
	delete(w.returns, req)
	w.retMu.Unlock()
	if !ok {
		diag.Warnf("am", "PE%d: return for unknown request %d from PE%d", w.pe, req, src)
		return
	}
	if e.issueNs > 0 {
		now := telemetry.MonoNow()
		rt := now - e.issueNs
		// Round-trip latency feeds the flight recorder; a live session
		// additionally gets the return event.
		w.env.rec.PE(w.pe).Record(recorder.HistRoundTrip, rt)
		if telemetry.Enabled() {
			if c := telemetry.C(); c != nil {
				c.Emit(telemetry.Event{
					TS: now, Kind: telemetry.EvAMReturn,
					PE: int32(w.pe), Worker: telemetry.TidRuntime,
					Arg1: int64(src), Arg2: int64(req),
					Flow: e.span.Span,
				})
			}
		}
	}
	cb := e.cb
	if err == nil {
		if ram, isAM := v.(ActiveMessage); isAM {
			sp := e.span
			w.pool.Submit(func() {
				rv, rerr := w.runHandlerSpan(ram, src, sp)
				cb(rv, rerr)
			})
			return
		}
	}
	cb(v, err)
}

// ----- aggregation and wire handling ------------------------------------

// enqueue appends an envelope body to dst's aggregation queue, flushing
// when the buffer crosses the aggregation threshold.
func (w *World) enqueue(dst int, body []byte) {
	w.envSent.Add(1)
	q := w.queues[dst]
	var tc *telemetry.Collector
	var t0 int64
	if telemetry.Enabled() {
		if tc = telemetry.C(); tc != nil {
			t0 = tc.Now()
		}
	}
	q.mu.Lock()
	q.openLocked(t0)
	// Envelope bodies start 8-aligned in the batch so numeric payloads
	// inside them can be aliased (not copied) on the receiving side; the
	// fixed-width length prefix keeps framing identical to enqueueAM.
	q.enc.PutU32(uint32(len(body)))
	q.enc.Align(8)
	q.enc.PutRawBytes(body)
	w.appendedLocked(dst, q, tc)
}

// noteBatchFlush records one wire batch leaving this PE: always counted
// for Stats and recorded into the flight recorder's batch-age digest,
// and — when a telemetry session is active — emitted as an agg.flush
// span covering the queue's open→flush age.
func (w *World) noteBatchFlush(dst int, reason telemetry.FlushReason, envs int, openNs int64, tc *telemetry.Collector) {
	w.batchesSent.Add(1)
	w.batchReasons[reason].Add(1)
	now := telemetry.MonoNow() // same clock as tc.Now()
	var dur int64
	if openNs > 0 && now > openNs {
		dur = now - openNs
	}
	w.env.rec.PE(w.pe).Record(recorder.HistBatchAge, dur)
	if tc == nil {
		return
	}
	tc.Emit(telemetry.Event{
		TS: now - dur, Dur: dur, Kind: telemetry.EvBatchFlush, Sub: uint8(reason),
		PE: int32(w.pe), Worker: telemetry.TidRuntime,
		Arg1: int64(dst), Arg2: int64(envs),
	})
}

// flush drains dst's queue (and owed acks) onto the wire; reason says
// which flush cycle triggered it (drain vs background timer).
func (w *World) flush(dst int, reason telemetry.FlushReason) {
	w.putAcks(dst)
	var tc *telemetry.Collector
	if telemetry.Enabled() {
		tc = telemetry.C()
	}
	q := w.queues[dst]
	q.mu.Lock()
	if q.empty() {
		q.mu.Unlock()
		return
	}
	w.shipLocked(dst, q, reason, tc)
}

// putAcks enqueues one ack envelope for the AMs from dst this PE
// completed since the last one, if any.
func (w *World) putAcks(dst int) {
	if acks := w.pendingAcks[dst].Swap(0); acks > 0 {
		body := getEncoder(w)
		body.PutU8(envAck)
		body.PutUvarint(acks)
		w.enqueue(dst, body.Bytes())
		putEncoder(body)
	}
}

// Flush puts everything this PE buffered for other PEs on the wire: every
// destination queue's envelopes and open frames, and the acks it owes.
func (w *World) Flush() { w.flushAll(telemetry.FlushDrain) }

// flushAll drains every destination queue.
func (w *World) flushAll(reason telemetry.FlushReason) {
	for dst := 0; dst < w.NumPEs(); dst++ {
		if dst == w.pe {
			continue
		}
		w.flush(dst, reason)
	}
}

// flushLoop is the background flusher bounding sparse-traffic latency.
// With a telemetry session active, each tick also samples the PE's
// queue-depth and aggregation-occupancy gauges.
func (w *World) flushLoop() {
	defer w.env.flushWG.Done()
	ticker := time.NewTicker(w.env.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.env.stopFlush:
			w.flushAll(telemetry.FlushDrain)
			return
		case <-ticker.C:
			if telemetry.Enabled() {
				w.sampleGauges()
			}
			w.flushAll(telemetry.FlushTimer)
		}
	}
}

// sampleGauges emits the periodic queue-depth and agg-occupancy levels,
// plus — on worlds with a reliable wire — the live AIMD send-window and
// in-flight/parked frame levels summed across this PE's streams.
func (w *World) sampleGauges() {
	c := telemetry.C()
	if c == nil {
		return
	}
	now := c.Now()
	c.Emit(telemetry.Event{
		TS: now, Kind: telemetry.EvGauge, Sub: uint8(telemetry.GaugeQueueDepth),
		PE: int32(w.pe), Arg1: w.pool.Pending(),
	})
	queued := 0
	for _, q := range w.queues {
		q.mu.Lock()
		queued += q.count + len(q.frames)
		q.mu.Unlock()
	}
	c.Emit(telemetry.Event{
		TS: now, Kind: telemetry.EvGauge, Sub: uint8(telemetry.GaugeAggOccupancy),
		PE: int32(w.pe), Arg1: int64(queued),
	})
	if rel := w.env.rel; rel != nil {
		window, inflight, parked := rel.windowStats(w.pe)
		c.Emit(telemetry.Event{
			TS: now, Kind: telemetry.EvGauge, Sub: uint8(telemetry.GaugeWireWindow),
			PE: int32(w.pe), Arg1: int64(window),
		})
		c.Emit(telemetry.Event{
			TS: now, Kind: telemetry.EvGauge, Sub: uint8(telemetry.GaugeWireInflight),
			PE: int32(w.pe), Arg1: int64(inflight), Arg2: int64(parked),
		})
	}
}

// rxState is a pooled batch-walk context. It owns the delivered wire
// buffer (via its slab ref) and carries the reusable decoders and task
// scratch for one batch walk, so steady-state batch receipt performs no
// heap allocation. The buffer refcount starts at 1 (the walk itself) and
// gains one per exec task decoded from the batch: exec AM payloads alias
// the batch through the serde zero-copy views, so the buffer may return
// to the slab only after the walk AND every such task has finished.
type rxState struct {
	w      *World
	src    int
	ref    slab.Ref
	batch  []byte
	refs   atomic.Int64
	dec    serde.Decoder // batch framing walker
	envDec serde.Decoder // per-envelope header decoder
	tasks  []scheduler.Task
	run    func() // cached method value, submitted to the pool
}

var rxPool sync.Pool // New set in init to break the method-value cycle

// execTask is one pooled exec-envelope task: decode the AM, run the
// handler, ship results, then recycle itself, the decoded AM (when its
// type is pooled), and its reference on the batch buffer.
type execTask struct {
	w    *World
	src  int
	req  uint64
	body []byte
	rx   *rxState
	span telemetry.SpanContext
	ctx  Context // reused span-carrying handler context (zero alloc)
	dec  serde.Decoder
	run  func() // cached method value; the scheduler task
}

var execTaskPool sync.Pool

func init() {
	rxPool.New = func() any {
		rx := new(rxState)
		rx.run = rx.walk
		return rx
	}
	execTaskPool.New = func() any {
		t := new(execTask)
		t.run = t.exec
		return t
	}
}

// receiveBatch is the lamellae delivery callback: it schedules an
// asynchronous communication task that walks the batch, collecting one
// task per exec AM (deserialize + execute + return results, §III-C) and
// submitting them all through the executor's batch path — one injector
// shard-lock round trip per delivered batch instead of one per AM, with
// their relative FIFO order preserved. Ownership of ref (the batch
// buffer) transfers in; it is released when the walk and every exec task
// decoded from the batch have finished.
func (w *World) receiveBatch(src int, ref slab.Ref, batch []byte) {
	rx := rxPool.Get().(*rxState)
	rx.w, rx.src, rx.ref, rx.batch = w, src, ref, batch
	rx.refs.Store(1)
	w.pool.SubmitGlobal(rx.run)
}

func (rx *rxState) retain() { rx.refs.Add(1) }

// release drops one reference; the last one returns the wire buffer to
// the slab and the rxState to its pool.
func (rx *rxState) release() {
	if rx.refs.Add(-1) != 0 {
		return
	}
	rx.ref.Release()
	rx.w, rx.batch = nil, nil
	rxPool.Put(rx)
}

// walk processes one delivered batch (runs as a pool task).
func (rx *rxState) walk() {
	tasks := rx.decode(rx.tasks[:0])
	rx.w.pool.SubmitBatch(tasks)
	for i := range tasks {
		tasks[i] = nil
	}
	rx.tasks = tasks[:0]
	rx.release()
}

// decode walks the batch framing: returns and acks resolve inline, and
// each exec envelope appends its task to tasks.
func (rx *rxState) decode(tasks []scheduler.Task) []scheduler.Task {
	w, src := rx.w, rx.src
	rx.dec.Reset(rx.batch)
	dec := &rx.dec
	for dec.Remaining() > 0 {
		n := dec.U32()
		dec.Align(8)
		body := dec.RawBytes(int(n))
		if dec.Err() != nil {
			diag.Errorf("am", "PE%d: corrupt batch from PE%d: %v", w.pe, src, dec.Err())
			break
		}
		if t := w.handleEnvelope(rx, src, body); t != nil {
			tasks = append(tasks, t)
		}
	}
	return tasks
}

// handleEnvelope dispatches one envelope: returns and acks resolve
// inline; exec envelopes come back as a pooled task for the caller to
// submit (batched with the rest of the delivery). Return-envelope values
// never alias the batch — every return codec decodes into fresh memory —
// so only exec tasks need to hold a reference on the buffer.
func (w *World) handleEnvelope(rx *rxState, src int, body []byte) scheduler.Task {
	dec := &rx.envDec
	dec.Reset(body)
	kind := dec.U8()
	var sp telemetry.SpanContext
	if kind&envFlagTrace != 0 {
		sp.Trace = dec.Uvarint()
		sp.Span = dec.Uvarint()
		kind &^= envFlagTrace
	}
	switch kind {
	case envExec:
		req := dec.Uvarint()
		rest := dec.RawBytes(dec.Remaining())
		t := execTaskPool.Get().(*execTask)
		t.w, t.src, t.req, t.body, t.rx, t.span = w, src, req, rest, rx, sp
		rx.retain()
		return t.run
	case envReturn:
		req := dec.Uvarint()
		isErr := dec.Bool()
		if isErr {
			msg := dec.String()
			w.resolveReturn(src, req, nil, errors.New(msg))
		} else {
			dec.Ctx = w.ctx(src)
			v, err := serde.DecodeAny(dec)
			dec.Ctx = nil
			w.resolveReturn(src, req, v, err)
		}
		w.envProcessed.Add(1)
	case envAck:
		n := dec.Uvarint()
		w.completed.Add(n)
		w.envProcessed.Add(1)
	default:
		diag.Warnf("am", "PE%d: unknown envelope kind %d from PE%d", w.pe, kind, src)
		w.envProcessed.Add(1)
	}
	return nil
}

// exec runs one exec envelope (as a pool task): decode, execute, return
// results, recycle.
func (t *execTask) exec() {
	w, src := t.w, t.src
	t.dec.Reset(t.body)
	t.dec.Ctx = w.ctx(src)
	v, err := serde.DecodeAny(&t.dec)
	t.dec.Ctx = nil
	if err != nil {
		w.finishRemote(src, t.req, nil, fmt.Errorf("lamellar: PE%d: decode AM from PE%d: %w", w.pe, src, err))
		t.recycle()
		return
	}
	am, ok := v.(ActiveMessage)
	if !ok {
		w.finishRemote(src, t.req, nil, fmt.Errorf("lamellar: PE%d: %T is not an ActiveMessage", w.pe, v))
		t.recycle()
		return
	}
	var tc *telemetry.Collector
	var t0 int64
	if telemetry.Enabled() {
		if tc = telemetry.C(); tc != nil {
			t0 = tc.Now()
		}
	}
	var rv any
	var rerr error
	if t.span.Valid() {
		// Reuse the task's embedded Context so span-carrying executions
		// stay allocation-free; sub-AMs launched through it inherit the
		// wire-delivered span as parent.
		t.ctx = Context{World: w, Src: src, span: t.span}
		rv, rerr = w.runHandlerCtx(am, &t.ctx)
	} else {
		rv, rerr = w.runHandler(am, src)
	}
	if tc != nil {
		tc.Emit(telemetry.Event{
			TS: t0, Dur: tc.Now() - t0, Kind: telemetry.EvAMExec,
			PE: int32(w.pe), Worker: telemetry.TidRuntime, Arg1: int64(src),
			Flow: t.span.Span,
		})
	}
	w.finishRemote(src, t.req, rv, rerr)
	// The handler ran and the return value is serialized: the AM instance
	// (and any batch views it held) is dead — recycle pooled types.
	serde.Recycle(am)
	t.recycle()
}

// recycle returns the task to its pool and drops its batch reference.
func (t *execTask) recycle() {
	rx := t.rx
	t.w, t.rx, t.body = nil, nil, nil
	t.span = telemetry.SpanContext{}
	t.ctx = Context{}
	execTaskPool.Put(t)
	rx.release()
}

// finishRemote records completion of a remotely-launched AM: owes an ack
// to src and, when requested, sends the return value (or error) back.
func (w *World) finishRemote(src int, req uint64, v any, err error) {
	if req != 0 {
		body := getEncoder(w)
		body.PutU8(envReturn)
		body.PutUvarint(req)
		if err != nil {
			body.PutBool(true)
			body.PutString(err.Error())
		} else {
			body.PutBool(false)
			if eerr := serde.EncodeAny(body, v); eerr != nil {
				body.Reset()
				body.PutU8(envReturn)
				body.PutUvarint(req)
				body.PutBool(true)
				body.PutString(fmt.Sprintf("lamellar: return type not registered: %v", eerr))
			}
		}
		w.enqueue(src, body.Bytes())
		putEncoder(body)
	}
	w.pendingAcks[src].Add(1)
	w.envProcessed.Add(1)
}
