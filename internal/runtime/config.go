// Package runtime implements the core of the Lamellar reproduction: the
// Lamellae transport abstraction with its three implementations (sim/rofi,
// shmem, smp), the per-PE World with its work-stealing executor, teams,
// active messages with destination aggregation and double-buffered message
// queues, completion accounting (wait_all), distributed quiescence, and
// team collectives.
package runtime

import (
	"fmt"
	"time"

	"repro/internal/fabric"
)

// LamellaeKind selects the transport backing a world.
type LamellaeKind string

// The three Lamellae implementations described in the paper (§III-A).
const (
	// LamellaeSim is the ROFI-like transport: serialized messages travel
	// through ring buffers and staging heaps inside fabric segments using
	// the flag-based protocol, with modeled network costs.
	LamellaeSim LamellaeKind = "sim"
	// LamellaeShmem mirrors the paper's POSIX-shared-memory Lamellae: the
	// same serialization and delivery semantics, but messages move through
	// process-shared queues with no modeled network cost.
	LamellaeShmem LamellaeKind = "shmem"
	// LamellaeSMP is the single-PE transport: no serialization, no data
	// transfer; only valid for worlds with one PE.
	LamellaeSMP LamellaeKind = "smp"
	// LamellaeTCP moves batches over real loopback TCP sockets — genuine
	// network I/O through the same interface (no modeled cost; wall time
	// includes real kernel networking).
	LamellaeTCP LamellaeKind = "tcp"
)

// Config parameterizes a world. Zero values select documented defaults.
type Config struct {
	// PEs is the number of processing elements in the world.
	PEs int
	// WorkersPerPE sizes each PE's thread pool (the paper's best
	// configuration uses 4 threads per PE).
	WorkersPerPE int
	// Lamellae selects the transport; default LamellaeSim (LamellaeSMP for
	// single-PE worlds built via WorldBuilder).
	Lamellae LamellaeKind
	// Cost is the network cost model for the sim lamellae.
	Cost fabric.CostModel
	// AggThresholdBytes is the byte threshold of the per-destination
	// queues: a queue ships its batch once its AM envelopes plus the
	// estimated payload of the array element-op frames it holds reach
	// this, and a large array call's private frame ships once its own
	// estimate does. The paper's default is 100 KB.
	AggThresholdBytes int
	// FlushInterval is the background flusher period that bounds the
	// latency of sparse traffic.
	FlushInterval time.Duration
	// StagingBytes sizes each PE's send-staging heap in the sim lamellae.
	StagingBytes int
	// RingSlots is the per-source descriptor ring depth in the sim
	// lamellae.
	RingSlots int
	// CollectiveSlotBytes caps the per-PE payload of fabric collectives.
	CollectiveSlotBytes int
	// ArrayBatchSize is the op cap of every array element-op frame (the
	// BALE experiments limit aggregation to 10 000 operations) and the
	// call size from which a batched element op fills its own private
	// per-destination frames instead of the shared ones the destination
	// queues hold.
	ArrayBatchSize int
	// Faults attaches a fault-injection plan to the reliable wire layer:
	// every frame transmission between PEs consults the plan and may be
	// dropped, duplicated, reordered, or delayed (see fabric.FaultPlan).
	// nil (and no LAMELLAR_FAULT_* environment knobs) disables injection.
	// Single-PE smp worlds have no wire and ignore the plan.
	Faults *fabric.FaultPlan
	// RetryInterval is the reliable wire layer's initial retransmission
	// timeout for an unacknowledged frame; each retry doubles it up to
	// RetryBackoffMax. Default 20ms.
	RetryInterval time.Duration
	// RetryBackoffMax caps the exponential retransmission backoff.
	// Default 500ms.
	RetryBackoffMax time.Duration
	// DeliveryTimeout bounds how long the wire layer keeps retrying one
	// frame before abandoning it: affected futures resolve with a
	// *DeliveryError and completion accounting is reconciled so WaitAll
	// and finalize terminate. Default 20s; negative disables the timeout
	// (frames retry forever — a hard partition then blocks finalize).
	DeliveryTimeout time.Duration
	// Telemetry enables the tracing/metrics subsystem
	// (internal/telemetry) for this world: lifecycle events into per-PE
	// ring buffers, latency histograms, and periodic gauges. Off by
	// default; the disabled instrumentation path is a single atomic
	// branch. Usually set through LAMELLAR_TRACE=1 (see ApplyEnv).
	Telemetry bool
	// TraceOut, with Telemetry set, writes the Chrome trace-event JSON
	// timeline (Perfetto-loadable) to this path at world shutdown.
	TraceOut string
	// TraceRingCap overrides the per-PE telemetry event-ring capacity
	// (rounded up to a power of two; 0 selects the 65536 default).
	TraceRingCap int
	// WatchdogInterval is the stall-watchdog sampling period. 0 selects
	// the default (250ms, or LAMELLAR_WATCHDOG_MS when set); negative
	// disables the watchdog entirely.
	WatchdogInterval time.Duration
	// WatchdogStallFactor scales the stall threshold: an outstanding
	// return-style AM is flagged once its age exceeds this multiple of
	// the recorded round-trip p99 (floored at 8× the sampling interval so
	// cold digests cannot trigger false positives). Default 8.
	WatchdogStallFactor int
	// WireWindowFrames caps each (src,dst) stream's AIMD congestion
	// window in frames: at most this many unacked frames in flight, with
	// further frames parking on a per-stream pending queue and senders
	// blocking (backpressure) once the queue exceeds the cap. Default
	// 256, floored at 8. The in-flight byte budget is fixed at 16 MiB at
	// full window (wireWindowBytes) and scales with the congestion
	// window.
	WireWindowFrames int
	// WireAckEvery coalesces cumulative acks: one ack per this many
	// in-order deliveries (or after WireAckHoldoff, whichever first).
	// Default 4; 1 acks every frame.
	WireAckEvery int
	// WireAckHoldoff bounds how long an owed coalesced ack may wait for
	// more deliveries (or reverse traffic to piggyback on). Default 250µs.
	WireAckHoldoff time.Duration
	// WireOOOWindow bounds each receive stream's out-of-order buffer:
	// frames more than this many sequence numbers ahead of the next
	// expected one are dropped (the sender's timeout repairs them) so
	// sustained reordering cannot grow memory. Default 1024.
	WireOOOWindow int
	// WireRTOMin floors the RTT-adaptive retransmission timeout so
	// microsecond-scale local round trips cannot produce a hair-trigger
	// RTO. Default 500µs.
	WireRTOMin time.Duration
}

func (c Config) withDefaults() Config {
	if c.PEs <= 0 {
		c.PEs = 1
	}
	if c.WorkersPerPE <= 0 {
		c.WorkersPerPE = 4
	}
	if c.Lamellae == "" {
		if c.PEs == 1 {
			c.Lamellae = LamellaeSMP
		} else {
			c.Lamellae = LamellaeSim
		}
	}
	if c.Cost == (fabric.CostModel{}) {
		if c.Lamellae == LamellaeSim {
			c.Cost = fabric.DefaultCostModel()
		}
		// shmem/smp keep the zero model: local transports are free.
	}
	if c.AggThresholdBytes <= 0 {
		c.AggThresholdBytes = 100_000
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Microsecond
	}
	if c.StagingBytes <= 0 {
		c.StagingBytes = 16 << 20
	}
	if c.RingSlots <= 0 {
		c.RingSlots = 128
	}
	if c.CollectiveSlotBytes <= 0 {
		c.CollectiveSlotBytes = 64 << 10
	}
	if c.ArrayBatchSize <= 0 {
		c.ArrayBatchSize = 10_000
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 20 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 500 * time.Millisecond
	}
	if c.DeliveryTimeout == 0 {
		c.DeliveryTimeout = 20 * time.Second
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = 250 * time.Millisecond
		if ms, ok := envInt("LAMELLAR_WATCHDOG_MS"); ok {
			if ms < 0 {
				c.WatchdogInterval = -1 // disabled
			} else if ms > 0 {
				c.WatchdogInterval = time.Duration(ms) * time.Millisecond
			}
		}
	}
	if c.WatchdogStallFactor <= 0 {
		c.WatchdogStallFactor = 8
	}
	if c.WireWindowFrames <= 0 {
		c.WireWindowFrames = 256
	}
	if c.WireAckEvery <= 0 {
		c.WireAckEvery = 4
	}
	if c.WireAckHoldoff <= 0 {
		c.WireAckHoldoff = 250 * time.Microsecond
	}
	if c.WireOOOWindow <= 0 {
		c.WireOOOWindow = 1024
	}
	if c.WireRTOMin <= 0 {
		c.WireRTOMin = 500 * time.Microsecond
	}
	if c.Faults == nil {
		// LAMELLAR_FAULT_* knobs apply process-wide so the existing test
		// and example matrix can run under an adversarial fabric without
		// touching every Config literal (see `make fault-stress`).
		c.Faults = envFaultPlan()
	}
	return c
}

func (c Config) validate() error {
	if c.Lamellae == LamellaeSMP && c.PEs != 1 {
		return fmt.Errorf("runtime: smp lamellae requires exactly 1 PE, got %d", c.PEs)
	}
	switch c.Lamellae {
	case LamellaeSim, LamellaeShmem, LamellaeSMP, LamellaeTCP:
	default:
		return fmt.Errorf("runtime: unknown lamellae %q", c.Lamellae)
	}
	if c.CollectiveSlotBytes <= 8 {
		return fmt.Errorf("runtime: CollectiveSlotBytes %d too small (need > 8 for the chunk header)", c.CollectiveSlotBytes)
	}
	return nil
}
