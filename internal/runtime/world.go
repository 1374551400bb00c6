package runtime

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/fabric"
	"repro/internal/scheduler"
	"repro/internal/serde"
	"repro/internal/slab"
	"repro/internal/telemetry"
	"repro/internal/telemetry/recorder"
)

// worldEnv is the state shared by all PEs of one world (one simulated job).
type worldEnv struct {
	cfg    Config
	prov   *fabric.Provider
	lam    lamellae
	rel    *relLamellae // reliability layer; nil for single-PE (smp) worlds
	worlds []*World

	collMu sync.Mutex
	coll   map[string]*collEntry

	teamIDs atomic.Uint64
	ext     extMap

	stopFlush chan struct{}
	flushWG   sync.WaitGroup
	closed    atomic.Bool

	tele      *telemetry.Collector // active telemetry session, nil when off
	teleOwned bool                 // this world started the session

	// rec is the always-on flight recorder: per-PE digests that feed the
	// watchdog, the wire's cold-stream RTO, and diagnostic dumps.
	rec *recorder.Recorder
	// dog is the stall watchdog sampler (nil when disabled).
	dog *watchdog
}

type collEntry struct {
	done    chan struct{}
	val     any
	kind    string
	fetched int
	created int64 // MonoNow stamp, watchdog collective-stall input
}

// World is one PE's handle on the runtime, the analogue of the
// LamellarWorld each SPMD rank holds. All methods are safe for use from
// any goroutine belonging to that PE (worker tasks, AM handlers, main).
type World struct {
	env  *worldEnv
	pe   int
	pool *scheduler.Pool

	queues      []*aggQueue
	pendingAcks []atomic.Uint64 // acks owed, indexed by origin PE

	issued    atomic.Uint64 // AMs launched by this PE
	completed atomic.Uint64 // of which completed (locally or acked)

	envSent      atomic.Uint64 // envelopes enqueued for remote delivery
	envProcessed atomic.Uint64 // remote envelopes fully processed here

	nextReq atomic.Uint64
	retMu   sync.Mutex
	returns map[uint64]retEntry

	// ctxs holds one long-lived decode Context per source PE so the
	// steady-state receive path never allocates one.
	ctxs []Context

	worldTeam *Team
	ext       extMap

	// Wire-batch accounting: batches this PE put on the wire and why
	// each one flushed (size threshold, op cap, drain cycle, timer).
	batchesSent  atomic.Uint64
	batchReasons [telemetry.NumFlushReasons]atomic.Uint64

	// Array-op aggregation accounting, bumped by the array layer through
	// CountAggFlush: buffers dispatched, element ops coalesced into
	// them, and per-reason flush counts.
	aggBatches atomic.Uint64
	aggOps     atomic.Uint64
	aggReasons [telemetry.NumFlushReasons]atomic.Uint64

	flushHookMu sync.Mutex
	flushHooks  []func()

	// waitingSince is nonzero (a MonoNow stamp) while this PE's
	// application goroutine is blocked in WaitAll; the watchdog pairs it
	// with a stalled completion counter to flag wait stalls.
	waitingSince atomic.Int64
}

// retEntry is one outstanding request awaiting a return envelope: the
// completion callback plus the issue timestamp (monotonic clock) that
// feeds the round-trip digests — and through them the watchdog's stall
// threshold. span and dst let the watchdog name the oldest outstanding
// ops and the telemetry exporter close the causal flow.
type retEntry struct {
	cb      func(any, error)
	issueNs int64
	span    telemetry.SpanContext
	dst     int32
}

// ctx returns the PE's pre-built decode context for messages from src.
func (w *World) ctx(src int) *Context { return &w.ctxs[src] }

// CountAggFlush records one array-op aggregation buffer dispatch for
// Stats: why it flushed and how many coalesced element ops it carried.
// The array layer calls this on every buffer it ships.
func (w *World) CountAggFlush(reason telemetry.FlushReason, ops int) {
	w.aggBatches.Add(1)
	w.aggOps.Add(uint64(ops))
	if int(reason) < len(w.aggReasons) {
		w.aggReasons[reason].Add(1)
	}
}

// RegisterFlushHook installs fn to run at the start of every queue flush
// cycle (WaitAll, Barrier, BlockOn and the background flusher all flush).
// Higher layers use it to drain their own aggregation buffers — the
// array-op aggregation layer in particular — into the AM queues before
// those queues go out on the wire. Hooks may run concurrently from
// several goroutines and must tolerate having nothing to do.
func (w *World) RegisterFlushHook(fn func()) {
	w.flushHookMu.Lock()
	w.flushHooks = append(w.flushHooks, fn)
	w.flushHookMu.Unlock()
}

func (w *World) runFlushHooks() {
	w.flushHookMu.Lock()
	hooks := w.flushHooks
	w.flushHookMu.Unlock()
	for _, h := range hooks {
		h()
	}
}

// aggQueue buffers envelopes destined to one PE. Flushing swaps the active
// encoder for the spare (the second buffer of the paper's double-buffered
// message queue) so producers keep filling while the flushed buffer is in
// flight; once the transport has consumed the flushed buffer it returns as
// the new spare, so steady-state traffic allocates no batch buffers.
type aggQueue struct {
	mu      sync.Mutex
	enc     *serde.Encoder
	scratch *serde.Encoder
	count   int
	openNs  int64 // telemetry stamp of the first envelope in the active buffer
}

func newAggQueue() *aggQueue {
	return &aggQueue{enc: serde.NewEncoder(4096), scratch: serde.NewEncoder(4096)}
}

// takeSpareLocked hands out the spare encoder (or a fresh one); the
// caller must hold q.mu.
func (q *aggQueue) takeSpareLocked() *serde.Encoder {
	if s := q.scratch; s != nil {
		q.scratch = nil
		s.Reset()
		return s
	}
	return serde.NewEncoder(4096)
}

// putSpare returns a flushed buffer for reuse. Transports must not retain
// sent batches after send returns, which makes this safe.
func (q *aggQueue) putSpare(e *serde.Encoder) {
	if e.Cap() > maxPooledEncoderBytes {
		return
	}
	q.mu.Lock()
	if q.scratch == nil {
		q.scratch = e
	}
	q.mu.Unlock()
}

// WorldBuilder configures and builds a single-PE (SMP) world, mirroring
// Listing 1's `LamellarWorldBuilder::new().build()`. Multi-PE worlds are
// SPMD and launched with Run.
type WorldBuilder struct{ cfg Config }

// NewWorldBuilder returns a builder for an SMP world.
func NewWorldBuilder() *WorldBuilder {
	return &WorldBuilder{cfg: Config{PEs: 1, Lamellae: LamellaeSMP}}
}

// Workers sets the thread-pool size.
func (b *WorldBuilder) Workers(n int) *WorldBuilder { b.cfg.WorkersPerPE = n; return b }

// Build initializes the runtime and returns the world. Call Drop when done.
func (b *WorldBuilder) Build() (*World, error) {
	env, err := newEnv(b.cfg)
	if err != nil {
		return nil, err
	}
	return env.worlds[0], nil
}

// Run launches an SPMD world: fn runs once per PE, each invocation
// receiving that PE's World. Run returns after every PE's fn returned, all
// in-flight AMs completed (the paper's implicit deinitialization: each PE
// keeps serving AMs until every PE is ready), and the runtime shut down.
func Run(cfg Config, fn func(w *World)) error {
	env, err := newEnv(cfg)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for pe := 0; pe < env.cfg.PEs; pe++ {
		wg.Add(1)
		go func(w *World) {
			defer wg.Done()
			fn(w)
			w.finalize()
		}(env.worlds[pe])
	}
	wg.Wait()
	env.close()
	return nil
}

func newEnv(cfg Config) (*worldEnv, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	env := &worldEnv{
		cfg:       cfg,
		prov:      fabric.New(cfg.PEs, cfg.Cost),
		coll:      make(map[string]*collEntry),
		stopFlush: make(chan struct{}),
	}
	if cfg.Telemetry {
		// Start (or join) the process-global telemetry session before any
		// pool exists so no event is lost to a disabled gate.
		env.tele, env.teleOwned = telemetry.StartGlobal(cfg.PEs, cfg.TraceRingCap)
	}
	env.rec = recorder.New(cfg.PEs)
	env.worlds = make([]*World, cfg.PEs)
	for pe := 0; pe < cfg.PEs; pe++ {
		w := &World{
			env:         env,
			pe:          pe,
			pool:        scheduler.NewPool(cfg.WorkersPerPE),
			queues:      make([]*aggQueue, cfg.PEs),
			pendingAcks: make([]atomic.Uint64, cfg.PEs),
			returns:     make(map[uint64]retEntry),
			ctxs:        make([]Context, cfg.PEs),
		}
		for s := range w.ctxs {
			w.ctxs[s] = Context{World: w, Src: s}
		}
		w.pool.SetTelemetryPE(pe)
		w.pool.SetQueueWaitRecorder(env.rec.PE(pe).Hist(recorder.HistQueueWait))
		for d := range w.queues {
			w.queues[d] = newAggQueue()
		}
		pe := pe
		w.pool.SetPanicHandler(func(r any) {
			diag.Errorf("runtime", "PE%d: task panicked: %v", pe, r)
		})
		env.worlds[pe] = w
	}
	deliver := func(dst, src int, ref slab.Ref, msg []byte) {
		env.worlds[dst].receiveBatch(src, ref, msg)
	}
	if cfg.Lamellae == LamellaeSMP {
		env.lam = smpLamellae{}
	} else {
		// Every remote transport is wrapped in the reliability layer: the
		// raw lamellae moves relLamellae's framed bytes, and delivery
		// passes back through the seq/ack/dedup machinery before reaching
		// the runtime.
		rel := newRelLamellae(cfg, deliver, env.handleUndeliverable)
		var inner lamellae
		switch cfg.Lamellae {
		case LamellaeSim:
			inner = newSimLamellae(env.prov, cfg, rel.onDeliver)
		case LamellaeShmem:
			inner = newShmemLamellae(cfg.PEs, rel.onDeliver)
		case LamellaeTCP:
			var err error
			inner, err = newTCPLamellae(cfg.PEs, rel.onDeliver)
			if err != nil {
				return nil, err
			}
		}
		// The flight recorder receives wire round-trip samples and seeds
		// cold streams' adaptive RTO.
		rel.rec = env.rec
		rel.start(inner)
		env.lam = rel
		env.rel = rel
	}
	// World teams (one Team handle per PE sharing common team state).
	shared := newTeamShared(env, allPEs(cfg.PEs))
	for pe := 0; pe < cfg.PEs; pe++ {
		env.worlds[pe].worldTeam = &Team{env: env, shared: shared, myPE: pe, myRank: pe}
	}
	// Background flusher bounds the latency of sparse traffic.
	for pe := 0; pe < cfg.PEs; pe++ {
		env.flushWG.Add(1)
		go env.worlds[pe].flushLoop()
	}
	if cfg.WatchdogInterval > 0 {
		env.dog = newWatchdog(env, cfg.WatchdogInterval, cfg.WatchdogStallFactor)
		env.flushWG.Add(1)
		go env.dog.run()
	}
	registerEnv(env)
	return env, nil
}

func allPEs(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func (env *worldEnv) close() {
	if env.closed.Swap(true) {
		return
	}
	unregisterEnv(env)
	close(env.stopFlush)
	env.flushWG.Wait()
	env.lam.close()
	for _, w := range env.worlds {
		w.pool.Close()
	}
	if env.teleOwned {
		// All workers and flushers are stopped: the rings are quiescent,
		// so exporting and tearing the session down is safe here.
		if env.cfg.TraceOut != "" {
			if err := writeTimeline(env.tele, env.cfg.TraceOut); err != nil {
				diag.Errorf("runtime", "writing trace timeline: %v", err)
			}
		}
		telemetry.StopGlobal(env.tele)
	}
}

// writeTimeline dumps the collector's Chrome trace-event JSON to path.
func writeTimeline(c *telemetry.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ----- accessors -------------------------------------------------------

// MyPE reports the calling PE's world rank (Lamellar::current_pe).
func (w *World) MyPE() int { return w.pe }

// NumPEs reports the world size (Lamellar::num_pes).
func (w *World) NumPEs() int { return w.env.cfg.PEs }

// Team returns the world team containing all PEs.
func (w *World) Team() *Team { return w.worldTeam }

// Pool exposes the PE's executor for spawning user futures.
func (w *World) Pool() *scheduler.Pool { return w.pool }

// Provider exposes the fabric for memory-region construction and
// benchmarking counters. Low-level, "unsafe" tier.
func (w *World) Provider() *fabric.Provider { return w.env.prov }

// Config returns the world configuration (after defaulting).
func (w *World) Config() Config { return w.env.cfg }

// PeerWorld returns another PE's World handle; intended for tests and the
// shmem/smp tooling, not application code.
func (w *World) PeerWorld(pe int) *World { return w.env.worlds[pe] }

// ----- synchronization -------------------------------------------------

// Barrier is a global (world-team) synchronization point. It flushes
// aggregation queues first so no message can be indefinitely delayed
// across the barrier.
func (w *World) Barrier() {
	w.flushAll(telemetry.FlushDrain)
	w.env.prov.Barrier(w.pe)
}

// WaitAll blocks until every AM launched by this PE has completed,
// including AMs executed remotely (tracked through ack envelopes), helping
// the executor while waiting. It mirrors world.wait_all().
func (w *World) WaitAll() {
	// Mark the wait window for the stall watchdog; cleared on return.
	w.waitingSince.Store(telemetry.MonoNow())
	defer w.waitingSince.Store(0)
	for {
		w.flushAll(telemetry.FlushDrain)
		if w.completed.Load() >= w.issued.Load() {
			return
		}
		if !w.pool.TryRunOne() {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// BlockOn drives the executor until the future resolves and returns its
// value (world.block_on). Only the calling goroutine blocks.
func BlockOn[T any](w *World, f *scheduler.Future[T]) (T, error) {
	// Awaiting helps the pool already; flush first so the request this
	// future depends on actually leaves the aggregation buffers.
	w.flushAll(telemetry.FlushDrain)
	return f.Await()
}

// finalize implements the implicit deinit: flush, serve AMs until the
// whole world is quiescent (Dijkstra-style double count over two stable
// rounds), then synchronize.
func (w *World) finalize() {
	w.WaitAll()
	stable := 0
	for stable < 2 {
		w.flushAll(telemetry.FlushDrain)
		for w.pool.TryRunOne() {
		}
		inFlight := w.envSent.Load() - w.envProcessed.Load()
		pending := uint64(w.pool.Pending())
		local := w.issued.Load() - w.completed.Load()
		total := w.allReduceSumU64(inFlight + pending + local)
		if total == 0 {
			stable++
		} else {
			stable = 0
			time.Sleep(50 * time.Microsecond)
		}
	}
	w.env.prov.Barrier(w.pe)
}

// allReduceSumU64 is used by finalize; defined in collective.go.

// handleUndeliverable reconciles a wire frame the reliability layer
// abandoned after its delivery timeout (a partitioned or persistently
// lossy link). The frame's envelopes are walked so nothing hangs:
//
//   - exec envelopes: the issuing PE's future (if any) resolves with the
//     delivery error, and its completion counter advances so WaitAll
//     terminates;
//   - return envelopes: the destination PE's waiting future resolves
//     with the delivery error instead of blocking forever;
//   - ack envelopes: the destination's completion count is credited — the
//     acknowledged AMs did execute, only the accounting frame was lost.
//
// Envelope-processed accounting advances on the issuing side so the
// distributed quiescence check in finalize converges even though the
// receiver never saw the frame.
func (env *worldEnv) handleUndeliverable(src, dst int, payload []byte, cause error) {
	ws, wd := env.worlds[src], env.worlds[dst]
	dec := serde.NewDecoder(payload)
	for dec.Remaining() > 0 {
		n := dec.U32()
		dec.Align(8)
		body := dec.RawBytes(int(n))
		if dec.Err() != nil {
			diag.Errorf("runtime", "PE%d: corrupt abandoned frame to PE%d: %v", src, dst, dec.Err())
			return
		}
		bd := serde.NewDecoder(body)
		kind := bd.U8()
		if kind&envFlagTrace != 0 {
			bd.Uvarint() // trace ID
			bd.Uvarint() // span ID
			kind &^= envFlagTrace
		}
		switch kind {
		case envExec:
			req := bd.Uvarint()
			ws.completed.Add(1)
			if req != 0 {
				ws.resolveReturn(dst, req, nil, cause)
			}
		case envReturn:
			req := bd.Uvarint()
			wd.resolveReturn(src, req, nil, cause)
		case envAck:
			wd.completed.Add(bd.Uvarint())
		}
		ws.envProcessed.Add(1)
	}
}

// ----- collective construction registry --------------------------------

// collective rendezvouses all PEs of a team on the construction of one
// shared object: the first arriver runs build, everyone receives the same
// value. SPMD discipline requires all PEs to issue collectives in the
// same order (the standard PGAS contract); kind tags let the runtime
// detect mismatched sequences and fail with a diagnostic instead of
// corrupting state — the "limited runtime analysis to warn users" of
// §III-A3.
func (env *worldEnv) collective(key, kind string, teamSize int, build func() any) any {
	env.collMu.Lock()
	e, ok := env.coll[key]
	if !ok {
		e = &collEntry{done: make(chan struct{}), kind: kind, created: telemetry.MonoNow()}
		env.coll[key] = e
		env.collMu.Unlock()
		e.val = build()
		close(e.done)
	} else {
		if e.kind != kind {
			other := e.kind
			env.collMu.Unlock()
			panic(fmt.Sprintf("runtime: mismatched collective calls: this PE issued %q where another PE issued %q — all team members must make collective calls in the same order", kind, other))
		}
		env.collMu.Unlock()
		<-e.done
	}
	env.collMu.Lock()
	e.fetched++
	if e.fetched == teamSize {
		delete(env.coll, key)
	}
	env.collMu.Unlock()
	return e.val
}
