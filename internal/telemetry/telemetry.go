// Package telemetry is the runtime's zero-dependency, env-gated tracing
// and metrics subsystem. It records timestamped lifecycle events — task
// spawn/run/steal (scheduler), AM issue/encode/execute/return (runtime),
// aggregation batch open/flush with flush reasons (array layer), and
// fabric op spans with byte counts — into per-PE lock-free ring buffers,
// plus periodic queue-depth gauges. It also provides the log2-bucketed
// Histogram type; the latency histograms themselves (AM round trip,
// task queue wait, batch age, wire RTT) live in the always-on flight
// recorder (package recorder), not in a session.
//
// The disabled path is a single branch on a package-level atomic
// (Enabled()): no allocation, no time syscalls, no pointer chase. All
// instrumentation sites follow the pattern
//
//	if telemetry.Enabled() {
//	    t0 := telemetry.Now()
//	    ...
//	}
//
// Collected data exports as Chrome trace-event JSON (loadable in
// Perfetto with one track per PE×worker — see WriteChromeTrace) and a
// Prometheus-style dump of the event and drop counters (WritePrometheus).
//
// Concurrency contract: Emit and counter recording are safe
// from any goroutine at any time. Ring snapshots and the exporters must
// run at a quiescent point (after runtime.Run returned, or with the
// world at a barrier) — a ring writer lapping a concurrent reader would
// otherwise race on slot payloads.
package telemetry

import (
	"sync/atomic"
	"time"
)

// EventKind classifies a lifecycle event.
type EventKind uint8

// Event taxonomy (see DESIGN.md "Observability").
const (
	// EvTaskSpawn marks a task submitted to a PE's pool (instant).
	EvTaskSpawn EventKind = iota
	// EvTaskRun spans a task execution on a worker (Dur = run time).
	EvTaskRun
	// EvTaskSteal marks a successful steal by Worker from victim Arg1.
	EvTaskSteal
	// EvAMIssue marks an AM launch; Arg1 = destination PE, Arg2 = reqID.
	EvAMIssue
	// EvAMEncode spans serializing an AM into a destination queue;
	// Arg1 = destination PE.
	EvAMEncode
	// EvAMExec spans a remote AM handler execution; Arg1 = source PE.
	EvAMExec
	// EvAMReturn marks an origin-side return/future resolution;
	// Arg1 = executing PE, Arg2 = reqID.
	EvAMReturn
	// EvBatchOpen marks the first op buffered into an empty aggregation
	// buffer; Arg1 = destination.
	EvBatchOpen
	// EvBatchFlush spans an aggregation buffer's open→flush lifetime;
	// Sub = FlushReason, Arg1 = destination, Arg2 = ops (or envelopes).
	EvBatchFlush
	// EvFabricOp spans one fabric operation at its modeled duration;
	// Sub = fabric op kind, Arg1 = target PE, Arg2 = payload bytes.
	EvFabricOp
	// EvGauge samples a level; Sub = GaugeID, Arg1 = value.
	EvGauge
	// EvTaskPark spans a worker's sleep on the executor's parking lot
	// (Dur = parked time); Worker is the parking worker.
	EvTaskPark
	// EvWireRetry marks a reliable-wire frame retransmission;
	// Arg1 = destination PE, Arg2 = frame sequence number.
	EvWireRetry
	// EvWireDedup marks a duplicate frame discarded by the receiver;
	// Arg1 = source PE, Arg2 = frame sequence number.
	EvWireDedup
	// EvWireTimeout marks a frame abandoned after the delivery timeout;
	// Arg1 = destination PE, Arg2 = frame sequence number.
	EvWireTimeout
	// EvWireAck marks a standalone cumulative-ack frame sent;
	// Arg1 = destination PE, Arg2 = cumulative sequence acked.
	EvWireAck
	// EvWireFault marks a fault-plan injection on a transmission;
	// Sub = fabric.FaultKind, Arg1 = destination PE.
	EvWireFault
	// EvWireSend marks a reliable-wire data frame's first transmission;
	// Arg1 = destination PE, Arg2 = frame sequence number. Together with
	// am.encode flows it lets the critical-path analyzer attribute
	// queue-wait vs wire time to each cross-PE op.
	EvWireSend
	// EvHealth marks one stall-watchdog finding; Sub = HealthKind,
	// Arg1 = the kind-specific magnitude (stall age ns, backlog frames).
	EvHealth
	// EvWireOOODrop marks a received frame dropped because it landed
	// beyond the receiver's bounded reorder window (the sender's timeout
	// repairs it); Arg1 = source PE, Arg2 = frame sequence number.
	EvWireOOODrop

	numEventKinds = int(EvWireOOODrop) + 1
)

var eventNames = [numEventKinds]string{
	"task.spawn", "task.run", "task.steal",
	"am.issue", "am.encode", "am.exec", "am.return",
	"agg.open", "agg.flush", "fabric.op", "gauge",
	"task.park",
	"wire.retry", "wire.dedup", "wire.timeout", "wire.ack", "wire.fault",
	"wire.send", "health", "wire.ooodrop",
}

func (k EventKind) String() string {
	if int(k) < numEventKinds {
		return eventNames[k]
	}
	return "unknown"
}

// FlushReason says why an aggregation buffer (array-op buffer or runtime
// destination queue) went out.
type FlushReason uint8

// Flush reasons recorded in EvBatchFlush.Sub and surfaced by runtime.Stats.
const (
	// FlushSize: the buffer crossed its byte threshold.
	FlushSize FlushReason = iota
	// FlushOps: the buffer crossed its op-count cap.
	FlushOps
	// FlushDrain: a drain cycle (WaitAll/Barrier/BlockOn/explicit flush),
	// or the end of a large array call for its part-filled frames.
	FlushDrain
	// FlushTimer: the background flusher tick.
	FlushTimer

	numFlushReasons = int(FlushTimer) + 1
	// NumFlushReasons is the number of distinct flush reasons, for
	// callers keeping per-reason counter arrays.
	NumFlushReasons = numFlushReasons
)

var flushReasonNames = [numFlushReasons]string{"size", "ops", "drain", "timer"}

func (r FlushReason) String() string {
	if int(r) < numFlushReasons {
		return flushReasonNames[r]
	}
	return "unknown"
}

// HealthKind classifies one stall-watchdog finding (EvHealth.Sub).
type HealthKind uint8

// Watchdog findings. Each names a distinct liveness signature; the
// runtime counts them per PE and emits one EvHealth event per flag.
const (
	// HealthFutureStall: a future has been outstanding beyond N× the
	// recorded round-trip p99.
	HealthFutureStall HealthKind = iota
	// HealthWaitStall: WaitAll is blocked with no completion progress.
	HealthWaitStall
	// HealthCollectiveStall: a collective rendezvous is waiting on
	// stragglers beyond the stall threshold.
	HealthCollectiveStall
	// HealthStarvation: workers are parked while the injector holds
	// runnable tasks, and no task executed since the previous tick.
	HealthStarvation
	// HealthBacklogGrowth: the unacked wire backlog grew monotonically
	// over several watchdog ticks.
	HealthBacklogGrowth

	numHealthKinds = int(HealthBacklogGrowth) + 1
	// NumHealthKinds is the number of distinct watchdog findings, for
	// callers keeping per-kind counter arrays.
	NumHealthKinds = numHealthKinds
)

var healthNames = [numHealthKinds]string{
	"future_stall", "wait_stall", "collective_stall", "starvation", "backlog_growth",
}

func (k HealthKind) String() string {
	if int(k) < numHealthKinds {
		return healthNames[k]
	}
	return "unknown"
}

// GaugeID names a periodically sampled level.
type GaugeID uint8

// Gauges sampled by the runtime's background flusher.
const (
	// GaugeQueueDepth is the pool's submitted-but-unfinished task count.
	GaugeQueueDepth GaugeID = iota
	// GaugeAggOccupancy is the number of envelopes sitting in this PE's
	// destination aggregation queues.
	GaugeAggOccupancy
	// GaugeWireWindow is the PE's total AIMD send-window size (frames,
	// summed over destination streams).
	GaugeWireWindow
	// GaugeWireInflight is the PE's unacked in-flight wire frame count
	// (Arg2 of the same gauge event carries the parked-frame count).
	GaugeWireInflight

	numGauges = int(GaugeWireInflight) + 1
)

var gaugeNames = [numGauges]string{"queue.depth", "agg.occupancy", "wire.window", "wire.inflight"}

func (g GaugeID) String() string {
	if int(g) < numGauges {
		return gaugeNames[g]
	}
	return "unknown"
}

// Synthetic Chrome-trace thread ids for events not bound to a pool
// worker. Real workers use their worker index (0..W-1) directly.
const (
	// TidApp is the application/helper context (worker -1).
	TidApp = 96
	// TidNet is the fabric/network track.
	TidNet = 97
	// TidRuntime is the AM/aggregation runtime track.
	TidRuntime = 98
)

// Event is one recorded lifecycle event. TS is nanoseconds on the
// process-monotonic clock (MonoNow); Dur is the span length (0 for
// instants); Worker is the pool worker index or a Tid* constant; Sub
// carries the kind-specific subcode (FlushReason, fabric op kind,
// GaugeID, HealthKind). Flow/Parent carry the causal span id (and the
// launching span for am.issue); 0 means the event belongs to no flow.
type Event struct {
	TS     int64
	Dur    int64
	Arg1   int64
	Arg2   int64
	Flow   uint64
	Parent uint64
	PE     int32
	Worker int32
	Kind   EventKind
	Sub    uint8
}

// SpanContext is the compact causal trace context stamped onto AM
// envelopes: Trace identifies the whole causal chain (the root span's
// id), Span this particular operation. The zero SpanContext means "not
// traced" and costs nothing on the wire.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a live span.
func (s SpanContext) Valid() bool { return s.Span != 0 }

// spanIDs allocates process-unique span identifiers. Starting from 1
// keeps 0 free as the "no span" sentinel.
var spanIDs atomic.Uint64

// NewSpanID returns a fresh process-unique span id.
func NewSpanID() uint64 { return spanIDs.Add(1) }

// procStart anchors the process-monotonic event clock. Every telemetry
// timestamp — session events, the always-on flight recorder, AM issue
// stamps — shares this one time base, so latencies computed across
// subsystems (and across sessions starting mid-run) stay comparable.
var procStart = time.Now()

// MonoNow returns nanoseconds since process start on the monotonic
// clock. Unlike Now it needs no active session, making it the clock for
// always-on instrumentation (the flight recorder, AM issue stamps).
func MonoNow() int64 { return int64(time.Since(procStart)) }

// Collector owns the per-PE rings and event counters of one telemetry
// session.
type Collector struct {
	npes     int
	rings    []Ring
	evCounts []eventCounters // [pe][kind], survives ring wraparound
}

type eventCounters [numEventKinds]atomic.Uint64

// DefaultRingCap is the per-PE event-ring capacity when none is given.
const DefaultRingCap = 1 << 16

// NewCollector creates a collector for npes PEs with the given per-PE
// ring capacity (rounded up to a power of two; <=0 selects the default).
func NewCollector(npes, ringCap int) *Collector {
	if npes < 1 {
		npes = 1
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	c := &Collector{
		npes:     npes,
		rings:    make([]Ring, npes),
		evCounts: make([]eventCounters, npes),
	}
	for pe := range c.rings {
		c.rings[pe].init(ringCap)
	}
	return c
}

// NumPEs reports the collector's world size.
func (c *Collector) NumPEs() int { return c.npes }

// Now returns the event timestamp clock — an alias of MonoNow, so
// session events and always-on recorder stamps share one time base.
func (c *Collector) Now() int64 { return MonoNow() }

// Emit records ev into its PE's ring. Out-of-range PEs clamp to 0 so a
// mislabeled emitter cannot crash the run.
func (c *Collector) Emit(ev Event) {
	pe := int(ev.PE)
	if pe < 0 || pe >= c.npes {
		pe = 0
	}
	c.evCounts[pe][ev.Kind].Add(1)
	c.rings[pe].push(ev)
}

// EventCount reports how many events of kind were emitted on pe over the
// whole session, including events the ring has since overwritten.
func (c *Collector) EventCount(pe int, kind EventKind) uint64 {
	return c.evCounts[pe][kind].Load()
}

// Dropped reports events lost to ring-writer contention on pe.
func (c *Collector) Dropped(pe int) uint64 { return c.rings[pe].dropped.Load() }

// Events snapshots one PE's ring, oldest first. Quiescent points only —
// see the package comment.
func (c *Collector) Events(pe int) []Event { return c.rings[pe].snapshot() }

// ----- global session ---------------------------------------------------

var (
	enabled atomic.Bool
	global  atomic.Pointer[Collector]
)

// Enabled reports whether a telemetry session is active. This is the
// single branch every instrumentation site takes; when false the site
// must do no other telemetry work.
func Enabled() bool { return enabled.Load() }

// C returns the active collector, or nil when telemetry is disabled or
// between Enable/sessions. Callers must tolerate nil: a session can stop
// between an Enabled() check and the C() load.
func C() *Collector { return global.Load() }

// Now returns the active session's clock, or 0 with no session.
func Now() int64 {
	if c := global.Load(); c != nil {
		return c.Now()
	}
	return 0
}

// StartGlobal installs a new collector as the process-global session if
// none is active, returning the active collector and whether this call
// installed it (the owner should pass it to StopGlobal). A concurrent
// session keeps its collector; the caller shares it.
func StartGlobal(npes, ringCap int) (*Collector, bool) {
	c := NewCollector(npes, ringCap)
	if global.CompareAndSwap(nil, c) {
		enabled.Store(true)
		return c, true
	}
	return global.Load(), false
}

// StopGlobal ends the session owning collector c: a no-op unless c is
// the active global collector.
func StopGlobal(c *Collector) {
	if c == nil {
		return
	}
	if global.CompareAndSwap(c, nil) {
		enabled.Store(false)
	}
}
