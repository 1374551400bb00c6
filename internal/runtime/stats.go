package runtime

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/envknob"
	"repro/internal/fabric"
	"repro/internal/telemetry"
)

// Stats reports one PE's runtime activity; useful for tuning aggregation
// and verifying communication patterns in tests and benchmarks.
type Stats struct {
	// PE is the reporting PE.
	PE int
	// Issued is the number of AMs this PE launched.
	Issued uint64
	// Completed is how many of those finished (locally or acked).
	Completed uint64
	// EnvelopesSent counts envelopes enqueued for remote delivery
	// (AM bodies, returns, acks).
	EnvelopesSent uint64
	// EnvelopesProcessed counts remote envelopes fully handled here.
	EnvelopesProcessed uint64
	// PoolExecuted / PoolStolen / PoolParks / PoolBusy describe the
	// executor: tasks run, tasks obtained by stealing (batch transfers
	// included), worker park episodes, and accumulated execution time.
	PoolExecuted uint64
	PoolStolen   uint64
	PoolParks    uint64
	PoolBusy     time.Duration
	// BatchesSent counts aggregated envelope batches this PE put on the
	// wire; BatchFlushReasons splits them by trigger, indexed by
	// telemetry.FlushReason (size threshold, drain cycle, timer).
	BatchesSent       uint64
	BatchFlushReasons [telemetry.NumFlushReasons]uint64
	// AggBatchesFlushed / AggOpsCoalesced surface the array-op
	// aggregation layer: element-op buffers dispatched and the ops
	// coalesced into them; AggFlushReasons splits the buffers by
	// telemetry.FlushReason (size, ops, drain, run).
	AggBatchesFlushed uint64
	AggOpsCoalesced   uint64
	AggFlushReasons   [telemetry.NumFlushReasons]uint64
	// Reliable-wire counters (zero on smp worlds, which have no wire):
	// WireRetries counts frame retransmissions this PE's sender made;
	// WireTimeouts counts frames it abandoned after DeliveryTimeout;
	// WireDupDropped counts redelivered frames its receiver discarded
	// (dedup); WireOutOfOrder counts frames buffered awaiting a sequence
	// gap; WireAcksSent counts standalone cumulative-ack frames;
	// WireFaultsInjected counts fault-plan injections on its sends;
	// WireParked counts frames the AIMD send window parked on a pending
	// queue; WireAcksCoalesced counts per-frame acks avoided by ack
	// coalescing and piggyback suppression; WireOOODropped counts frames
	// the receiver dropped beyond its bounded reorder window.
	WireRetries        uint64
	WireTimeouts       uint64
	WireDupDropped     uint64
	WireOutOfOrder     uint64
	WireAcksSent       uint64
	WireFaultsInjected uint64
	WireParked         uint64
	WireAcksCoalesced  uint64
	WireOOODropped     uint64
	// Fabric is this PE's traffic counters (messages, bytes, modeled ns).
	Fabric fabric.Counters
}

// Stats snapshots the calling PE's runtime counters.
func (w *World) Stats() Stats {
	exec, stolen, parks, busy := w.pool.Stats()
	s := Stats{
		PE:                 w.pe,
		Issued:             w.issued.Load(),
		Completed:          w.completed.Load(),
		EnvelopesSent:      w.envSent.Load(),
		EnvelopesProcessed: w.envProcessed.Load(),
		PoolExecuted:       exec,
		PoolStolen:         stolen,
		PoolParks:          parks,
		PoolBusy:           busy,
		BatchesSent:        w.batchesSent.Load(),
		AggBatchesFlushed:  w.aggBatches.Load(),
		AggOpsCoalesced:    w.aggOps.Load(),
		Fabric:             w.env.prov.CountersFor(w.pe),
	}
	for i := range s.BatchFlushReasons {
		s.BatchFlushReasons[i] = w.batchReasons[i].Load()
		s.AggFlushReasons[i] = w.aggReasons[i].Load()
	}
	if rel := w.env.rel; rel != nil {
		wc := &rel.counters[w.pe]
		s.WireRetries = wc.retries.Load()
		s.WireTimeouts = wc.timeouts.Load()
		s.WireDupDropped = wc.dupDropped.Load()
		s.WireOutOfOrder = wc.oooHeld.Load()
		s.WireAcksSent = wc.acksSent.Load()
		s.WireFaultsInjected = wc.faults.Load()
		s.WireParked = wc.parked.Load()
		s.WireAcksCoalesced = wc.acksCoalesced.Load()
		s.WireOOODropped = wc.oooDropped.Load()
	}
	return s
}

// reasonString renders a per-reason counter array compactly, skipping
// zero reasons (e.g. "size:3 drain:1").
func reasonString(counts [telemetry.NumFlushReasons]uint64) string {
	var b strings.Builder
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", telemetry.FlushReason(i), n)
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"PE%d: ams=%d/%d env=%d/%d pool(exec=%d stolen=%d parks=%d busy=%v) batches(sent=%d reasons[%s]) agg(batches=%d ops=%d reasons[%s]) wire(retx=%d dedup=%d ooo=%d oodrop=%d parked=%d acks=%d coalesced=%d timeouts=%d injected=%d) net(msgs=%d bytes=%d modeled=%v)",
		s.PE, s.Completed, s.Issued, s.EnvelopesProcessed, s.EnvelopesSent,
		s.PoolExecuted, s.PoolStolen, s.PoolParks, s.PoolBusy,
		s.BatchesSent, reasonString(s.BatchFlushReasons),
		s.AggBatchesFlushed, s.AggOpsCoalesced, reasonString(s.AggFlushReasons),
		s.WireRetries, s.WireDupDropped, s.WireOutOfOrder, s.WireOOODropped, s.WireParked,
		s.WireAcksSent, s.WireAcksCoalesced, s.WireTimeouts, s.WireFaultsInjected,
		s.Fabric.Msgs, s.Fabric.Bytes, time.Duration(s.Fabric.ModeledNs))
}

// ApplyEnv overlays LAMELLAR_* environment variables onto a Config,
// mirroring the runtime knobs the Rust implementation reads from the
// environment:
//
//	LAMELLAR_THREADS     workers per PE
//	LAMELLAR_AGG_SIZE    aggregation buffer threshold in bytes
//	LAMELLAR_OP_BATCH    array element-op frame op cap (ArrayBatchSize)
//	LAMELLAR_LAMELLAE    sim | shmem | smp
//	LAMELLAR_RING_SLOTS  descriptor ring depth (sim lamellae)
//	LAMELLAR_TRACE       1/true enables the telemetry subsystem
//	                     (lifecycle tracing, gauges); the latency
//	                     histograms are always on (flight recorder)
//	LAMELLAR_TRACE_OUT   path for the Chrome trace-event JSON timeline
//	                     written at world shutdown (implies telemetry on);
//	                     open it in Perfetto (ui.perfetto.dev)
//	LAMELLAR_TRACE_RING  per-PE telemetry event-ring capacity
//
// Observability knobs (see the README's "observability in production"
// section):
//
//	LAMELLAR_LOG           diag-logger level: none|error|warn|info|debug
//	                       (default warn; read at process start by
//	                       internal/diag)
//	LAMELLAR_WATCHDOG_MS   stall-watchdog sampling period in ms (default
//	                       250; negative disables the watchdog). Read in
//	                       withDefaults, so it reaches every world.
//	LAMELLAR_DIAG          diagnostic-dump signal: 1/usr1 installs a
//	                       SIGUSR1 handler, usr2 uses SIGUSR2; on signal
//	                       every live world dumps a structured JSON
//	                       snapshot (flight-recorder digests, health
//	                       counters, oldest outstanding ops)
//	LAMELLAR_DIAG_OUT      append diagnostic dumps to this file instead
//	                       of stderr
//
// Fault-injection and reliability knobs (see fabric.FaultPlan and the
// README's fault-model table):
//
//	LAMELLAR_FAULT_SEED        fault-plan seed (default 1 when any rate set)
//	LAMELLAR_FAULT_DROP        per-frame drop probability, 0..1
//	LAMELLAR_FAULT_DUP         per-frame duplication probability, 0..1
//	LAMELLAR_FAULT_REORDER     per-frame reorder (hold-back) probability, 0..1
//	LAMELLAR_FAULT_DELAY       per-frame delay probability, 0..1
//	LAMELLAR_FAULT_DELAY_MS    delay duration in ms for delayed/reordered frames
//	LAMELLAR_FAULT_BURST       burst length: an injected fault repeats for
//	                           this many consecutive frames on the link
//	LAMELLAR_RETRY_MS          initial retransmission timeout in ms
//	LAMELLAR_DELIVERY_TIMEOUT_MS  per-frame delivery give-up bound in ms
//	                           (negative disables: retry forever)
//
// The reliable wire's flow-control settings (Config.Wire*) have no
// environment knobs: set them in the Config.
func (c Config) ApplyEnv() Config {
	if v, ok := envInt("LAMELLAR_THREADS"); ok {
		c.WorkersPerPE = v
	}
	if v, ok := envInt("LAMELLAR_AGG_SIZE"); ok {
		c.AggThresholdBytes = v
	}
	if v, ok := envInt("LAMELLAR_OP_BATCH"); ok {
		c.ArrayBatchSize = v
	}
	if v := os.Getenv("LAMELLAR_LAMELLAE"); v != "" {
		c.Lamellae = LamellaeKind(v)
	}
	if v, ok := envInt("LAMELLAR_RING_SLOTS"); ok {
		c.RingSlots = v
	}
	if v, ok := envknob.LookupBool("LAMELLAR_TRACE"); ok && v {
		c.Telemetry = true
	}
	if v := os.Getenv("LAMELLAR_TRACE_OUT"); v != "" {
		c.Telemetry = true
		c.TraceOut = v
	}
	if v, ok := envInt("LAMELLAR_TRACE_RING"); ok {
		c.TraceRingCap = v
	}
	if v, ok := envInt("LAMELLAR_RETRY_MS"); ok {
		c.RetryInterval = time.Duration(v) * time.Millisecond
	}
	if v, ok := envInt("LAMELLAR_DELIVERY_TIMEOUT_MS"); ok {
		if v < 0 {
			c.DeliveryTimeout = -1
		} else {
			c.DeliveryTimeout = time.Duration(v) * time.Millisecond
		}
	}
	// LAMELLAR_FAULT_* is picked up in withDefaults (envFaultPlan) so it
	// also reaches worlds built without ApplyEnv; nothing to do here.
	return c
}

// envInt and envFloat delegate to envknob so every malformed LAMELLAR_*
// value warns through the diag logger instead of printing (or not) on an
// ad-hoc path.
func envInt(name string) (int, bool) { return envknob.LookupInt(name) }

func envFloat(name string) (float64, bool) { return envknob.LookupFloat(name) }

// envFaultOnce caches the process-wide fault plan built from
// LAMELLAR_FAULT_* so every world in the process shares one plan (and its
// injection counters). Computed once: fault-stress runs set the knobs
// before the process starts, and tests that want a private plan pass
// Config.Faults explicitly.
var envFaultOnce = struct {
	sync.Once
	plan *fabric.FaultPlan
}{}

// envFaultPlan builds a fault plan from the LAMELLAR_FAULT_* environment
// knobs, or returns nil when none are set (the common case: no
// injection, zero overhead beyond one nil check per frame).
func envFaultPlan() *fabric.FaultPlan {
	envFaultOnce.Do(func() {
		var lf fabric.LinkFaults
		any := false
		if v, ok := envFloat("LAMELLAR_FAULT_DROP"); ok {
			lf.DropRate, any = v, true
		}
		if v, ok := envFloat("LAMELLAR_FAULT_DUP"); ok {
			lf.DupRate, any = v, true
		}
		if v, ok := envFloat("LAMELLAR_FAULT_REORDER"); ok {
			lf.ReorderRate, any = v, true
		}
		if v, ok := envFloat("LAMELLAR_FAULT_DELAY"); ok {
			lf.DelayRate, any = v, true
		}
		if v, ok := envInt("LAMELLAR_FAULT_DELAY_MS"); ok {
			lf.Delay, any = time.Duration(v)*time.Millisecond, true
		}
		if v, ok := envInt("LAMELLAR_FAULT_BURST"); ok {
			lf.BurstLen, any = v, true
		}
		seed, haveSeed := envInt("LAMELLAR_FAULT_SEED")
		if !any && !haveSeed {
			return
		}
		if !haveSeed {
			seed = 1
		}
		envFaultOnce.plan = fabric.NewFaultPlan(int64(seed)).SetDefault(lf)
	})
	return envFaultOnce.plan
}
