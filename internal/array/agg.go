package array

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/serde"
	"repro/internal/telemetry"
)

// Operation aggregation layer (§IV-B / Fig. 5): element ops on
// AtomicArray/LocalLockArray/UnsafeArray coalesce into per-destination
// buffers so many small ops ride one AM envelope instead of paying a full
// envelope, encode, and allocation each. Contiguous same-destination
// index runs collapse into a single run-length entry, so a contiguous
// batch of N ops costs O(1) buffer entries and the payload moves through
// the zero-copy serde fast path on both sides.
//
// Buffers flush when they cross Config.AggBufSize estimated payload
// bytes or Config.AggFlushOps buffered element ops, on every World flush
// cycle (WaitAll, Barrier, BlockOn, the background flusher — wired via
// World.RegisterFlushHook), when a caller awaits a buffered op's future
// (via the future's await hook), and on explicit FlushBatches calls.
//
// Ordering: entries buffered for the same destination apply there
// sequentially in submission order within one flush; ops in different
// flushes or to different destinations are unordered with respect to
// each other, exactly like independent AMs. Fetch-style results route
// back to each originating op's future in submission order.
//
// Large range transfers (Put/Get and friends) bypass this layer: they
// already travel as single rangePutAM/rangeGetAM payloads or cross over
// to RDMA pulls above the aggregation threshold (see bigPut).

// Entry flag layout: low nibble is the Op, high bits are modifiers.
const (
	entryOpMask    = 0x0f
	entryBroadcast = 0x20 // one value applies to the whole run
	entryFetch     = 0x40 // previous values are returned for this entry
)

// aggEntryOverhead estimates the wire cost of one buffered entry (op
// byte + fixed-width start and count) for the flush-threshold check.
const aggEntryOverhead = 17

// aggRoute remembers where one buffered entry's results go. A nil cd
// means the entry came through the fire-and-forget scalar path: it is
// tracked by the aggregator's shared pending counter (and shared
// condition future) instead of a per-op countdown.
type aggRoute[T serde.Number] struct {
	cd  *scheduler.Countdown[[]T]
	out []T // fetch results land here; nil when the entry returns nothing
}

// aggBatch is one destination's buffer: columnar entry metadata plus the
// packed operand values, built to serialize with PutNumericSlice.
type aggBatch[T serde.Number] struct {
	ops    []uint8
	starts []int64
	counts []int64
	vals   []T
	casOld []T
	routes []aggRoute[T]
	nops   int   // buffered element ops
	bytes  int   // estimated wire payload bytes
	openNs int64 // telemetry clock when the first op landed (0 = untraced)
	fetch  bool

	// am and onDone are the batch's recycled launch state: the AM struct
	// the columns serialize through and the completion callback bound once
	// when the batch object was created, so dispatching a flushed buffer
	// allocates neither.
	am     aggAM[T]
	onDone func(any, error)
}

// resolveBatch routes an aggAM's results (or error) back to every
// buffered entry, in submission order: per-op countdowns for routed
// entries, the shared pending counter for fire-and-forget ones.
func (g *aggregator[T]) resolveBatch(b *aggBatch[T], res []T, err error) {
	ri := 0
	shared := int64(0)
	for k := range b.routes {
		r := b.routes[k]
		if err == nil && r.out != nil {
			cnt := int(b.counts[k])
			copy(r.out, res[ri:ri+cnt])
			ri += cnt
		}
		if r.cd != nil {
			r.cd.Done(err)
		} else {
			shared++
		}
	}
	if shared > 0 {
		if err != nil {
			g.noteErr(err)
		}
		g.pending.Add(-shared)
	}
}

// noteErr latches the first error seen by a fire-and-forget entry; the
// shared condition future surfaces it on every subsequent await.
func (g *aggregator[T]) noteErr(err error) {
	g.errMu.Lock()
	if g.stickyErr == nil {
		g.stickyErr = err
	}
	g.errMu.Unlock()
}

type aggShard[T serde.Number] struct {
	mu sync.Mutex
	b  *aggBatch[T]
}

// aggregator is one PE's aggregation state for one array: a buffer per
// destination team rank, plus a recycle pool so steady-state traffic
// reuses batch column storage instead of reallocating it per flush.
type aggregator[T serde.Number] struct {
	st     *sharedState[T]
	w      *runtime.World
	team   *runtime.Team
	elemSz int
	// Flush thresholds, Config.AggBufSize and Config.AggFlushOps.
	bufSize  int
	flushOps int
	flushFn  func() // FlushBatches method value, bound once (await hooks)
	shards   []aggShard[T]
	spares   sync.Pool // *aggBatch[T]

	// Shared completion state for fire-and-forget scalar ops: every such
	// op bumps pending and hands the caller sharedF, a reusable condition
	// future that is done exactly when no buffered or in-flight
	// fire-and-forget op remains — one allocation for the aggregator's
	// lifetime instead of a countdown + future per op.
	pending   atomic.Int64
	errMu     sync.Mutex
	stickyErr error
	sharedF   *scheduler.Future[[]T]
}

// agg returns this PE's aggregator for the array, creating it (and
// registering its flush hook with the World) on first use. The lookup is
// a lock-free load on the hot path.
func (c *core[T]) agg() *aggregator[T] {
	s := c.st
	me := c.w.MyPE()
	if g := s.aggPtrs[me].Load(); g != nil {
		return g
	}
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	if g := s.aggPtrs[me].Load(); g != nil {
		return g
	}
	cfg := c.w.Config()
	g := &aggregator[T]{
		st:       s,
		w:        c.w,
		team:     c.team,
		elemSz:   serde.SizeOf[T](),
		bufSize:  cfg.AggBufSize,
		flushOps: cfg.AggFlushOps,
		shards:   make([]aggShard[T], c.team.Size()),
	}
	g.spares.New = func() any {
		b := new(aggBatch[T])
		b.onDone = func(v any, err error) {
			res, _ := v.([]T)
			g.resolveBatch(b, res, err)
			g.putBatch(b)
		}
		return b
	}
	g.flushFn = g.FlushBatches
	g.sharedF = scheduler.NewConditionFuture(c.w.Pool(), func() ([]T, error, bool) {
		if g.pending.Load() != 0 {
			return nil, nil, false
		}
		g.errMu.Lock()
		err := g.stickyErr
		g.errMu.Unlock()
		return nil, err, true
	})
	g.sharedF.SetAwaitHook(g.flushFn)
	s.aggPtrs[me].Store(g)
	c.w.RegisterFlushHook(g.FlushBatches)
	return g
}

// flushAgg drains this PE's buffers for the array, if any exist.
func (c *core[T]) flushAgg() {
	if g := c.st.aggPtrs[c.w.MyPE()].Load(); g != nil {
		g.FlushBatches()
	}
}

func (g *aggregator[T]) getBatch() *aggBatch[T] {
	return g.spares.Get().(*aggBatch[T])
}

// putBatch recycles a resolved batch's column storage. Batches that grew
// unusually large (CAS runs are never bypassed, so they can exceed the
// byte threshold) are dropped instead of pinning the memory.
func (g *aggregator[T]) putBatch(b *aggBatch[T]) {
	if cap(b.vals)*g.elemSz > 1<<20 {
		return
	}
	for i := range b.routes {
		b.routes[i] = aggRoute[T]{}
	}
	b.ops, b.starts, b.counts = b.ops[:0], b.starts[:0], b.counts[:0]
	b.vals, b.casOld, b.routes = b.vals[:0], b.casOld[:0], b.routes[:0]
	b.nops, b.bytes, b.openNs, b.fetch = 0, 0, 0, false
	g.spares.Put(b)
}

// FlushBatches drains every destination's buffer into the AM queues. It
// runs from World flush cycles and future await hooks; explicit calls
// are only needed to bound the latency of fire-and-forget ops.
func (g *aggregator[T]) FlushBatches() {
	for rank := range g.shards {
		sh := &g.shards[rank]
		sh.mu.Lock()
		b := sh.b
		sh.b = nil
		sh.mu.Unlock()
		if b != nil && len(b.ops) > 0 {
			g.dispatch(rank, b, telemetry.FlushDrain)
		}
	}
}

// dispatch ships one detached buffer to its destination. The batch is
// recycled once its completion resolved: the AM was serialized during
// launch (aggregated destinations are always remote), so nothing else
// references its column storage afterwards.
func (g *aggregator[T]) dispatch(rank int, b *aggBatch[T], reason telemetry.FlushReason) {
	g.w.CountAggFlush(reason, b.nops)
	if tc := telemetry.C(); tc != nil && b.openNs > 0 {
		now := tc.Now()
		dur := now - b.openNs
		if dur < 0 {
			dur = 0
		}
		tc.Emit(telemetry.Event{
			TS: b.openNs, Dur: dur, Kind: telemetry.EvBatchFlush,
			Sub: uint8(reason), PE: int32(g.w.MyPE()), Worker: telemetry.TidRuntime,
			Arg1: int64(g.team.WorldPE(rank)), Arg2: int64(b.nops),
		})
	}
	b.am = aggAM[T]{
		ID:      g.st.id,
		WantOut: b.fetch,
		Ops:     b.ops,
		Starts:  b.starts,
		Counts:  b.counts,
		Vals:    b.vals,
		CasOld:  b.casOld,
	}
	// The batch's pre-bound callback resolves routes and recycles the
	// batch; the AM serializes synchronously during launch, so reusing
	// b.am and the column storage afterwards is safe.
	g.w.ExecAMCallback(g.team.WorldPE(rank), &b.am, b.onDone)
}

// append buffers one run for rank, flushing the shard if it crossed a
// threshold. evals is the run's values (len 1 means broadcast when the
// broadcast flag is set); eout, when non-nil, receives previous values.
// A nil cd tracks the run on the shared pending counter instead.
func (g *aggregator[T]) append(rank int, op Op, local, n int, broadcast bool,
	evals, ecas, eout []T, cd *scheduler.Countdown[[]T], elemSz int) {
	if cd != nil {
		cd.Add(1)
	} else {
		g.pending.Add(1)
	}
	sh := &g.shards[rank]
	sh.mu.Lock()
	b := sh.b
	if b == nil {
		b = g.getBatch()
		sh.b = b
		if telemetry.Enabled() {
			if tc := telemetry.C(); tc != nil {
				b.openNs = tc.Now()
				tc.Emit(telemetry.Event{
					TS: b.openNs, Kind: telemetry.EvBatchOpen,
					PE: int32(g.w.MyPE()), Worker: telemetry.TidRuntime,
					Arg1: int64(g.team.WorldPE(rank)),
				})
			}
		}
	}
	flags := uint8(op)
	if eout != nil {
		flags |= entryFetch
		b.fetch = true
	}
	nv := 0
	if op != OpLoad {
		if broadcast {
			flags |= entryBroadcast
			var v T
			if len(evals) > 0 {
				v = evals[0]
			}
			b.vals = append(b.vals, v)
			nv = 1
		} else {
			b.vals = append(b.vals, evals...)
			nv = n
		}
	}
	if op == OpCAS {
		// CAS entries always carry one old value per element on the wire.
		if len(ecas) <= 1 {
			var v T
			if len(ecas) > 0 {
				v = ecas[0]
			}
			for k := 0; k < n; k++ {
				b.casOld = append(b.casOld, v)
			}
		} else {
			b.casOld = append(b.casOld, ecas...)
		}
		nv += n
	}
	b.ops = append(b.ops, flags)
	b.starts = append(b.starts, int64(local))
	b.counts = append(b.counts, int64(n))
	b.routes = append(b.routes, aggRoute[T]{cd: cd, out: eout})
	b.nops += n
	b.bytes += aggEntryOverhead + nv*elemSz
	var detached *aggBatch[T]
	reason := telemetry.FlushSize
	if b.nops >= g.flushOps {
		detached, reason = b, telemetry.FlushOps
		sh.b = nil
	} else if b.bytes >= g.bufSize {
		detached = b
		sh.b = nil
	}
	sh.mu.Unlock()
	if detached != nil {
		g.dispatch(rank, detached, reason)
	}
}

// dispatchRun ships one large run as its own immediate single-entry
// batch, aliasing the caller's value/output slices instead of copying
// them through a buffer: a run this size would trip a flush threshold by
// itself, so buffering would only add a memmove (the same aliasing
// contract putRange uses). The shard's pending buffer is flushed first
// to keep destination application roughly in submission order. CAS and
// broadcast runs never take this path — they need operand expansion.
func (g *aggregator[T]) dispatchRun(rank int, op Op, local, n int,
	evals, eout []T, cd *scheduler.Countdown[[]T]) {
	cd.Add(1)
	sh := &g.shards[rank]
	sh.mu.Lock()
	b := sh.b
	sh.b = nil
	sh.mu.Unlock()
	if b != nil {
		g.dispatch(rank, b, telemetry.FlushDrain)
	}
	g.w.CountAggFlush(telemetry.FlushRun, n)
	flags := uint8(op)
	if eout != nil {
		flags |= entryFetch
	}
	am := &aggAM[T]{
		ID:      g.st.id,
		WantOut: eout != nil,
		Ops:     []uint8{flags},
		Starts:  []int64{int64(local)},
		Counts:  []int64{int64(n)},
		Vals:    evals,
	}
	runtime.ExecTyped[[]T](g.w, g.team.WorldPE(rank), am).OnDone(func(res []T, err error) {
		if err == nil && eout != nil {
			copy(eout, res)
		}
		cd.Done(err)
	})
}

// aggSubmit is the aggregated batchOp path: it splits idxs into maximal
// contiguous same-destination runs, applies owner-local runs inline, and
// buffers remote runs per destination. The returned future resolves once
// every run completed, with previous values in input order for
// fetch-style ops, and carries an await hook that flushes the buffers.
func (c *core[T]) aggSubmit(op Op, fetch bool, idxs []int, vals, casOld []T) *scheduler.Future[[]T] {
	needOut := fetch || op == OpLoad || op == OpSwap || op == OpCAS
	var out []T
	var valueFn func() []T
	if needOut {
		out = make([]T, len(idxs))
		valueFn = func() []T { return out }
	}
	g := c.agg()
	// The countdown starts with a submission reservation released at the
	// end, so the future cannot resolve while runs are still being issued.
	cd, future := scheduler.NewCountdown(c.w.Pool(), 1, valueFn)
	future.SetAwaitHook(g.flushFn)

	me := c.w.MyPE()
	geom := c.st.geom
	broadcast := len(vals) <= 1 && op != OpLoad
	elemSz := serde.SizeOf[T]()
	mergeRuns := geom.dist == Block || geom.npes == 1
	i := 0
	for i < len(idxs) {
		gi := c.globalIndex(idxs[i])
		rank, local := geom.place(gi)
		n := 1
		if mergeRuns {
			// Precompute how far the run can extend so the scan is a
			// single bounded comparison per element.
			base := idxs[i]
			limit := len(idxs) - i
			if r := geom.localLen(rank) - local; r < limit {
				limit = r
			}
			if r := c.len - base; r < limit {
				limit = r
			}
			for n < limit && idxs[i+n] == base+n {
				n++
			}
		}
		var evals []T
		if op != OpLoad {
			if broadcast {
				evals = vals
			} else {
				evals = vals[i : i+n]
			}
		}
		var ecas []T
		if op == OpCAS {
			if len(casOld) <= 1 {
				ecas = casOld
			} else {
				ecas = casOld[i : i+n]
			}
		}
		var eout []T
		if needOut {
			eout = out[i : i+n]
		}
		if g.team.WorldPE(rank) == me {
			// Owner-local run: apply immediately, no buffering.
			cd.Add(1)
			cd.Done(c.st.applyAggRun(me, rank, op, local, n, evals, ecas, eout))
		} else if op != OpCAS && !broadcast && (n >= g.flushOps || n*elemSz >= g.bufSize) {
			g.dispatchRun(rank, op, local, n, evals, eout, cd)
		} else {
			g.append(rank, op, local, n, broadcast, evals, ecas, eout, cd, elemSz)
		}
		i += n
	}
	cd.Done(nil) // release the submission reservation
	return future
}

// zeroOf returns T's zero value (placeholder operand for singleOp calls
// whose op ignores that column).
func zeroOf[T serde.Number]() T {
	var z T
	return z
}

// singleOp is the scalar path behind the one-element API methods. With
// aggregation enabled it skips the batch machinery entirely — no index
// or value slices, one countdown+future allocation per op — and hands a
// single run to the destination buffer (or applies it inline when the
// element is owner-local). append copies operand values into the batch
// columns, so the stack-backed one-element slices never escape.
func (c *core[T]) singleOp(op Op, fetch bool, idx int, val, casOld T) *scheduler.Future[[]T] {
	if c.w.Config().AggBufSize < 0 {
		// Direct mode: one AM per op via the batch path.
		var evals, ecas []T
		if op != OpLoad {
			evals = []T{val}
		}
		if op == OpCAS {
			ecas = []T{casOld}
		}
		return c.batchOp(op, fetch, []int{idx}, evals, ecas)
	}
	needOut := fetch || op == OpLoad || op == OpSwap || op == OpCAS
	g := c.agg()
	rank, local := c.st.geom.place(c.globalIndex(idx))
	if !needOut {
		// Fire-and-forget scalar op: no per-op future at all. The shared
		// condition future (done ⇔ no buffered or in-flight ops) is the
		// return value, so the steady-state aggregated add/store path
		// allocates nothing.
		if g.team.WorldPE(rank) == c.w.MyPE() {
			vbuf := [1]T{val}
			var evals []T
			if op != OpLoad {
				evals = vbuf[:]
			}
			if err := c.st.applyAggRun(c.w.MyPE(), rank, op, local, 1, evals, nil, nil); err != nil {
				return scheduler.Fail[[]T](err)
			}
		} else {
			vbuf := [1]T{val}
			var evals []T
			if op != OpLoad {
				evals = vbuf[:]
			}
			g.append(rank, op, local, 1, false, evals, nil, nil, nil, g.elemSz)
		}
		return g.sharedF
	}
	out := make([]T, 1)
	valueFn := func() []T { return out }
	cd, future := scheduler.NewCountdown(c.w.Pool(), 1, valueFn)
	future.SetAwaitHook(g.flushFn)
	if g.team.WorldPE(rank) == c.w.MyPE() {
		// Owner-local: apply immediately, no buffering. The operand
		// buffers are scoped to this branch so the remote path's copies
		// stay stack-allocated (nativeRun's any-conversions leak these).
		vbuf, cbuf := [1]T{val}, [1]T{casOld}
		var evals, ecas []T
		if op != OpLoad {
			evals = vbuf[:]
		}
		if op == OpCAS {
			ecas = cbuf[:]
		}
		cd.Done(c.st.applyAggRun(c.w.MyPE(), rank, op, local, 1, evals, ecas, out))
	} else {
		vbuf, cbuf := [1]T{val}, [1]T{casOld}
		var evals, ecas []T
		if op != OpLoad {
			evals = vbuf[:]
		}
		if op == OpCAS {
			ecas = cbuf[:]
		}
		g.append(rank, op, local, 1, false, evals, ecas, out, cd, g.elemSz)
		cd.Done(nil) // release the submission reservation
	}
	return future
}

// ----- destination-side application ----------------------------------------

// aggAM carries one flushed destination buffer: columnar entries plus the
// packed operand values, all moving through the zero-copy slice codec.
type aggAM[T serde.Number] struct {
	ID      uint64
	WantOut bool
	Ops     []uint8
	Starts  []int64
	Counts  []int64
	Vals    []T
	CasOld  []T
}

// ResetLamellar clears the AM for its decode pool (RegisterAMPooled):
// destination-side instances recycle after Exec instead of churning an
// allocation per delivered batch.
func (a *aggAM[T]) ResetLamellar() { *a = aggAM[T]{} }

func (a *aggAM[T]) MarshalLamellar(e *serde.Encoder) {
	e.PutUvarint(a.ID)
	e.PutBool(a.WantOut)
	e.PutBytes(a.Ops)
	serde.PutNumericSliceAligned(e, a.Starts)
	serde.PutNumericSliceAligned(e, a.Counts)
	serde.PutNumericSliceAligned(e, a.Vals)
	serde.PutNumericSliceAligned(e, a.CasOld)
}

func (a *aggAM[T]) UnmarshalLamellar(d *serde.Decoder) error {
	// Views alias the received batch, which the runtime never reuses;
	// they are consumed inside Exec on the destination pool.
	a.ID = d.Uvarint()
	a.WantOut = d.Bool()
	a.Ops = d.Bytes()
	a.Starts = serde.NumericSliceViewAligned[int64](d)
	a.Counts = serde.NumericSliceViewAligned[int64](d)
	a.Vals = serde.NumericSliceViewAligned[T](d)
	a.CasOld = serde.NumericSliceViewAligned[T](d)
	return d.Err()
}

func (a *aggAM[T]) Exec(ctx *runtime.Context) any {
	st, rank := lookupState[T](ctx, a.ID)
	out, err := st.applyAggBatch(ctx.World.MyPE(), rank, a.Ops, a.Starts, a.Counts, a.Vals, a.CasOld, a.WantOut)
	if err != nil {
		panic(err) // converted to an origin-side error by the runtime
	}
	if a.WantOut {
		return out
	}
	return nil
}

// applyAggBatch executes a flushed buffer's entries sequentially on
// rank's local data, honoring the array's kind, and returns the
// concatenated previous values of fetch-flagged entries.
func (s *sharedState[T]) applyAggBatch(worldPE, rank int, ops []uint8, starts, counts []int64,
	vals, casOld []T, wantOut bool) ([]T, error) {
	kind := Kind(s.kind.Load())
	data := s.region.Local(worldPE)
	n := s.geom.localLen(rank)
	var out []T
	if wantOut {
		total := 0
		for k, f := range ops {
			if f&entryFetch != 0 {
				total += int(counts[k])
			}
		}
		out = make([]T, total)
	}
	if kind == KindLocalLock {
		// One rank-lock acquisition for the whole buffer — the point of
		// aggregating LocalLockArray ops.
		anyWrite := false
		for _, f := range ops {
			if Op(f & entryOpMask).isWrite() {
				anyWrite = true
				break
			}
		}
		lk := s.rwLocks[rank]
		if anyWrite {
			lk.Lock()
			defer lk.Unlock()
		} else {
			lk.RLock()
			defer lk.RUnlock()
		}
	}
	vi, ci, oi := 0, 0, 0
	for k, f := range ops {
		op := Op(f & entryOpMask)
		start := int(starts[k])
		cnt := int(counts[k])
		if start < 0 || cnt < 0 || start+cnt > n {
			return nil, fmt.Errorf("array: agg entry [%d,%d) out of local range [0,%d)", start, start+cnt, n)
		}
		if op.isWrite() && kind == KindReadOnly {
			return nil, fmt.Errorf("array: %v on ReadOnlyArray", op)
		}
		var evals []T
		if op != OpLoad {
			if f&entryBroadcast != 0 {
				evals = vals[vi : vi+1]
				vi++
			} else {
				evals = vals[vi : vi+cnt]
				vi += cnt
			}
		}
		var ecas []T
		if op == OpCAS {
			ecas = casOld[ci : ci+cnt]
			ci += cnt
		}
		var eout []T
		if f&entryFetch != 0 {
			eout = out[oi : oi+cnt]
			oi += cnt
		}
		s.applyRun(rank, kind, op, start, data[start:start+cnt], evals, ecas, eout)
	}
	return out, nil
}

// applyAggRun applies one contiguous run locally (origin == owner),
// sharing the owner-side run kernels with the remote path.
func (s *sharedState[T]) applyAggRun(worldPE, rank int, op Op, start, cnt int, evals, ecas, eout []T) error {
	kind := Kind(s.kind.Load())
	if op.isWrite() && kind == KindReadOnly {
		return fmt.Errorf("array: %v on ReadOnlyArray", op)
	}
	n := s.geom.localLen(rank)
	if start < 0 || start+cnt > n {
		return fmt.Errorf("array: agg run [%d,%d) out of local range [0,%d)", start, start+cnt, n)
	}
	data := s.region.Local(worldPE)
	if kind == KindLocalLock {
		lk := s.rwLocks[rank]
		if op.isWrite() {
			lk.Lock()
			defer lk.Unlock()
		} else {
			lk.RLock()
			defer lk.RUnlock()
		}
	}
	s.applyRun(rank, kind, op, start, data[start:start+cnt], evals, ecas, eout)
	return nil
}

// applyRun applies one run with kind-appropriate element semantics. For
// KindLocalLock the caller already holds the rank lock.
func (s *sharedState[T]) applyRun(rank int, kind Kind, op Op, start int, seg, evals, ecas, eout []T) {
	if kind == KindAtomic {
		if s.native {
			nativeRun(op, seg, evals, ecas, eout)
			return
		}
		locks := s.elocks[rank][start : start+len(seg)]
		for i := range seg {
			l := &locks[i]
			lockElem(l)
			cur := seg[i]
			next := plainStep(op, cur, valAtRun(evals, i), valAtRun(ecas, i))
			if op.isWrite() {
				seg[i] = next
			}
			unlockElem(l)
			if eout != nil {
				eout[i] = cur
			}
		}
		return
	}
	plainRun(op, seg, evals, ecas, eout)
}

// plainStep computes one element transition for non-atomic kinds.
func plainStep[T serde.Number](op Op, cur, v, casOld T) T {
	if op == OpCAS {
		if cur == casOld {
			return v
		}
		return cur
	}
	return applyScalar(op, cur, v)
}

// valAtRun reads a possibly-broadcast operand column.
func valAtRun[T serde.Number](vals []T, i int) T {
	switch len(vals) {
	case 0:
		var zero T
		return zero
	case 1:
		return vals[0]
	default:
		return vals[i]
	}
}

// plainRun is the unsynchronized run kernel (Unsafe, ReadOnly loads, and
// LocalLock under the caller-held rank lock), with tight loops for the
// hot store/load/add shapes.
func plainRun[T serde.Number](op Op, seg, evals, ecas, eout []T) {
	switch {
	case op == OpStore && eout == nil:
		if len(evals) == 1 {
			v := evals[0]
			for i := range seg {
				seg[i] = v
			}
		} else {
			copy(seg, evals)
		}
	case op == OpLoad:
		copy(eout, seg)
	case op == OpAdd && eout == nil:
		if len(evals) == 1 {
			v := evals[0]
			for i := range seg {
				seg[i] += v
			}
		} else {
			for i := range seg {
				seg[i] += evals[i]
			}
		}
	default:
		for i := range seg {
			cur := seg[i]
			next := plainStep(op, cur, valAtRun(evals, i), valAtRun(ecas, i))
			if op.isWrite() {
				seg[i] = next
			}
			if eout != nil {
				eout[i] = cur
			}
		}
	}
}

// nativeRun is the native-atomic run kernel. The monomorphic fast paths
// matter: a per-element any-based type switch would dominate the
// aggregated path's CPU cost.
func nativeRun[T serde.Number](op Op, seg, evals, ecas, eout []T) {
	switch sg := any(seg).(type) {
	case []uint64:
		if nativeRunU64(op, sg, any(evals).([]uint64), any(eout).([]uint64)) {
			return
		}
	case []int64:
		if nativeRunI64(op, sg, any(evals).([]int64), any(eout).([]int64)) {
			return
		}
	}
	for i := range seg {
		var co T
		if op == OpCAS {
			co = valAtRun(ecas, i)
		}
		prev := nativeApply(op, &seg[i], valAtRun(evals, i), co)
		if eout != nil {
			eout[i] = prev
		}
	}
}

func nativeRunU64(op Op, seg, vals, out []uint64) bool {
	switch op {
	case OpStore:
		if out != nil {
			return false
		}
		if !raceDetectorEnabled {
			// Word-sized aligned stores are single-copy atomic — the Go
			// memory model guarantees a read of such a location observes
			// some written value, never a torn mix — so a bulk copy honors
			// the per-element atomicity contract at memcpy speed instead
			// of paying a locked exchange per element.
			if len(vals) == 1 {
				v := vals[0]
				for i := range seg {
					seg[i] = v
				}
			} else {
				copy(seg, vals)
			}
			return true
		}
		if len(vals) == 1 {
			v := vals[0]
			for i := range seg {
				atomic.StoreUint64(&seg[i], v)
			}
		} else {
			for i := range seg {
				atomic.StoreUint64(&seg[i], vals[i])
			}
		}
	case OpAdd:
		if out != nil {
			if len(vals) == 1 {
				v := vals[0]
				for i := range seg {
					out[i] = atomic.AddUint64(&seg[i], v) - v
				}
			} else {
				for i := range seg {
					out[i] = atomic.AddUint64(&seg[i], vals[i]) - vals[i]
				}
			}
		} else if len(vals) == 1 {
			v := vals[0]
			for i := range seg {
				atomic.AddUint64(&seg[i], v)
			}
		} else {
			for i := range seg {
				atomic.AddUint64(&seg[i], vals[i])
			}
		}
	case OpLoad:
		for i := range seg {
			out[i] = atomic.LoadUint64(&seg[i])
		}
	default:
		return false
	}
	return true
}

func nativeRunI64(op Op, seg, vals, out []int64) bool {
	switch op {
	case OpStore:
		if out != nil {
			return false
		}
		if !raceDetectorEnabled {
			// See nativeRunU64: plain word stores are untorn, so bulk
			// copy preserves per-element atomicity.
			if len(vals) == 1 {
				v := vals[0]
				for i := range seg {
					seg[i] = v
				}
			} else {
				copy(seg, vals)
			}
			return true
		}
		if len(vals) == 1 {
			v := vals[0]
			for i := range seg {
				atomic.StoreInt64(&seg[i], v)
			}
		} else {
			for i := range seg {
				atomic.StoreInt64(&seg[i], vals[i])
			}
		}
	case OpAdd:
		if out != nil {
			if len(vals) == 1 {
				v := vals[0]
				for i := range seg {
					out[i] = atomic.AddInt64(&seg[i], v) - v
				}
			} else {
				for i := range seg {
					out[i] = atomic.AddInt64(&seg[i], vals[i]) - vals[i]
				}
			}
		} else if len(vals) == 1 {
			v := vals[0]
			for i := range seg {
				atomic.AddInt64(&seg[i], v)
			}
		} else {
			for i := range seg {
				atomic.AddInt64(&seg[i], vals[i])
			}
		}
	case OpLoad:
		for i := range seg {
			out[i] = atomic.LoadInt64(&seg[i])
		}
	default:
		return false
	}
	return true
}
