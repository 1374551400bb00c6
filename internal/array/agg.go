package array

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/serde"
	"repro/internal/telemetry"
)

// Operation aggregation layer (§IV-B / Fig. 5): element ops on
// AtomicArray/LocalLockArray/UnsafeArray coalesce into per-destination
// frames so many small ops ride one AM envelope instead of paying a full
// envelope, encode, and allocation each. Contiguous same-destination
// index runs collapse into a single run-length entry, so a contiguous
// batch of N ops costs O(1) frame entries and the payload moves through
// the zero-copy serde fast path on both sides. The single-element ops of
// a large call go to its frames' scatter sections instead: one op byte
// per section and a uint32 offset (plus a value unless broadcast) per
// op. aggAM is the only wire format for element ops and applyAggBatch
// the only receive kernel.
//
// The size of a call picks who owns the frames. Scalar ops and calls of
// fewer than Config.ArrayBatchSize indices share one open frame per array
// and destination, held by the runtime's queue for that destination and
// filled under its lock (World.AppendFrame). The frame ships with the
// queue's batch, whatever ships it: the batch reaching
// Config.AggThresholdBytes (AM envelopes and the frames' estimated bytes
// together), the frame reaching Config.ArrayBatchSize element ops, or a
// World flush (WaitAll, Barrier, BlockOn, FlushBatches, the background
// flusher). Larger calls fill private, unlocked frames that all ship
// before the call returns, each once it holds AggThresholdBytes estimated
// payload bytes or ArrayBatchSize element ops.
//
// Ordering: a frame's run entries apply at the destination sequentially
// in submission order, then its scatter section applies in its own
// submission order, so an index that appears both as a single op and
// inside a run of one large call may see them in a different order than
// submitted. Ops in different frames (the frames of one large call
// included) or to different destinations are unordered with respect to
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

// Frame flag layout (aggAM.Flags). A frame without a scatter section
// sets at most frameWantOut, so small-call and scalar frames keep their
// byte layout (TestSharedFrameEncodingUnchanged pins it).
const (
	frameWantOut = 0x01 // the frame returns the previous values it fetched
	frameScatter = 0x02 // a scatter section follows the run entries
)

// aggEntryOverhead estimates the wire cost of one buffered entry (op
// byte + fixed-width start and count) for the flush-threshold check;
// scatterEntryBytes is the cost of one scatter-section offset.
const (
	aggEntryOverhead  = 17
	scatterEntryBytes = 4
)

// scatterMaxOff is the exclusive bound of a scatter offset: the all-ones
// uint32 is never a valid offset, so a frame carrying it fails whole.
const scatterMaxOff = 1<<32 - 1

// aggRoute remembers where one buffered entry's results go. In a shared
// frame a nil cd means the entry came through the fire-and-forget scalar
// path: it is tracked by the aggregator's shared pending counter (and
// shared condition future) instead of a per-op countdown. Private frames
// complete through the frame's own countdown and keep routes only for
// fetch results.
type aggRoute[T serde.Number] struct {
	cd  *scheduler.Countdown[[]T]
	out []T // fetch results land here; nil when the entry returns nothing
}

// aggBatch is one destination's frame: columnar entry metadata plus the
// packed operand values, built to serialize with PutNumericSlice.
type aggBatch[T serde.Number] struct {
	ops    []uint8
	starts []int64
	counts []int64
	vals   []T
	casOld []T
	routes []aggRoute[T]

	// The scatter section of a large call's private frame: every
	// single-element op of the call in one op byte (sop), one local
	// offset each, and a value column that holds one broadcast value,
	// one value per offset, or nothing (loads). A fetching call also
	// records where each offset's previous value lands in its result
	// slice sout.
	sop   uint8
	soffs []uint32
	svals []T
	spos  []int32
	sout  []T

	nops   int   // buffered element ops
	bytes  int   // estimated wire payload bytes
	openNs int64 // telemetry clock when the first op landed (0 = untraced)
	fetch  bool

	// cd is set on a large call's private frame: the frame holds one
	// reservation on the call's countdown instead of one per entry.
	cd *scheduler.Countdown[[]T]
	// alias marks a one-entry frame whose vals alias the caller's slice;
	// it is never recycled, so no later append can write into caller
	// memory.
	alias bool

	// am and onDone are the frame's recycled launch state: the AM struct
	// the columns serialize through and the completion callback bound once
	// when the frame object was created, so dispatching a flushed frame
	// allocates neither.
	am     aggAM[T]
	onDone func(any, error)

	// g and rank locate a shared frame's slot in its aggregator, which
	// SealFrame clears.
	g    *aggregator[T]
	rank int
}

// resolveBatch routes an aggAM's results (or error) back to every
// buffered entry, in submission order: per-op countdowns for routed
// entries, the shared pending counter for fire-and-forget ones, the
// frame's countdown for a private frame.
func (g *aggregator[T]) resolveBatch(b *aggBatch[T], res []T, err error) {
	ri := 0
	shared := int64(0)
	for _, r := range b.routes {
		if err == nil && r.out != nil {
			ri += copy(r.out, res[ri:])
		}
		if r.cd != nil {
			r.cd.Done(err)
		} else if b.cd == nil {
			shared++
		}
	}
	if err == nil && len(b.spos) > 0 {
		// The section's previous values follow the run entries' in res.
		for k, v := range res[ri : ri+len(b.spos)] {
			b.sout[b.spos[k]] = v
		}
	}
	if b.cd != nil {
		b.cd.Done(err)
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

// aggregator is one PE's aggregation state for one array: a shared frame
// per destination team rank, plus a recycle pool so steady-state traffic
// reuses frame column storage instead of reallocating it per flush.
type aggregator[T serde.Number] struct {
	st     *sharedState[T]
	w      *runtime.World
	team   *runtime.Team
	elemSz int
	// Private-frame thresholds: Config.AggThresholdBytes and
	// Config.ArrayBatchSize. flushOps is also a shared frame's op cap and
	// the call size from which batchOp fills private frames.
	bufSize  int
	flushOps int
	// scatterCap is the most scatter offsets one frame can take before a
	// threshold ships it; private frames presize their scatter columns
	// to it, so filling them never grows a slice.
	scatterCap int
	// shared holds the open shared frame per destination rank; slot r is
	// guarded by the lock of the runtime queue to rank r's PE.
	shared []*aggBatch[T]
	spares sync.Pool // *aggBatch[T]

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

// agg returns this PE's aggregator for the array, creating it on first
// use. The lookup is a lock-free load on the hot path.
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
		st:         s,
		w:          c.w,
		team:       c.team,
		elemSz:     serde.SizeOf[T](),
		bufSize:    cfg.AggThresholdBytes,
		flushOps:   cfg.ArrayBatchSize,
		scatterCap: min(cfg.ArrayBatchSize, cfg.AggThresholdBytes/scatterEntryBytes+1),
		shared:     make([]*aggBatch[T], c.team.Size()),
	}
	g.spares.New = func() any {
		b := &aggBatch[T]{g: g}
		b.onDone = func(v any, err error) {
			res, _ := v.([]T)
			g.resolveBatch(b, res, err)
			g.putBatch(b)
		}
		return b
	}
	g.sharedF = scheduler.NewConditionFuture(c.w.Pool(), func() ([]T, error, bool) {
		if g.pending.Load() != 0 {
			return nil, nil, false
		}
		g.errMu.Lock()
		err := g.stickyErr
		g.errMu.Unlock()
		return nil, err, true
	})
	s.aggPtrs[me].Store(g)
	return g
}

// open stamps an empty frame for rank with its telemetry open time;
// owner-local frames never reach the wire and stay unstamped.
func (g *aggregator[T]) open(rank int, b *aggBatch[T]) *aggBatch[T] {
	if !telemetry.Enabled() || g.team.WorldPE(rank) == g.w.MyPE() {
		return b
	}
	if tc := telemetry.C(); tc != nil {
		b.openNs = tc.Now()
		tc.Emit(telemetry.Event{
			TS: b.openNs, Kind: telemetry.EvBatchOpen,
			PE: int32(g.w.MyPE()), Worker: telemetry.TidRuntime,
			Arg1: int64(g.team.WorldPE(rank)),
		})
	}
	return b
}

// putBatch recycles a resolved frame's column storage. Aliasing frames
// and frames whose values outgrew 1 MiB (a run is never split across
// frames, so one run can exceed the thresholds) are dropped instead.
func (g *aggregator[T]) putBatch(b *aggBatch[T]) {
	if b.alias || cap(b.vals)*g.elemSz > 1<<20 {
		return
	}
	for i := range b.routes {
		b.routes[i] = aggRoute[T]{}
	}
	b.ops, b.starts, b.counts = b.ops[:0], b.starts[:0], b.counts[:0]
	b.vals, b.casOld, b.routes = b.vals[:0], b.casOld[:0], b.routes[:0]
	b.sop, b.soffs, b.svals, b.spos, b.sout = 0, b.soffs[:0], b.svals[:0], b.spos[:0], nil
	b.nops, b.bytes, b.openNs, b.fetch, b.cd = 0, 0, 0, false, nil
	g.spares.Put(b)
}

// note counts one frame leaving for rank's PE and, with a live session,
// emits its open→flush span.
func (g *aggregator[T]) note(rank int, b *aggBatch[T], reason telemetry.FlushReason) {
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
}

// SealFrame detaches a shared frame from its aggregator as the queue
// holding it ships (runtime.Frame); the frame counts under that batch's
// flush reason. Its pre-bound callback resolves the routes and recycles
// the frame: the AM is encoded before the queue unlocks, so nothing else
// references the column storage afterwards.
func (b *aggBatch[T]) SealFrame(reason telemetry.FlushReason) (runtime.ActiveMessage, func(any, error)) {
	g := b.g
	g.shared[b.rank] = nil
	g.note(b.rank, b, reason)
	b.seal(g.st.id)
	return &b.am, b.onDone
}

// seal points the frame's AM at its columns.
func (b *aggBatch[T]) seal(id uint64) {
	b.am = aggAM[T]{
		ID:     id,
		Ops:    b.ops,
		Starts: b.starts,
		Counts: b.counts,
		Vals:   b.vals,
		CasOld: b.casOld,
	}
	if b.fetch {
		b.am.Flags |= frameWantOut
	}
	if len(b.soffs) > 0 {
		b.am.Flags |= frameScatter
		b.am.SOp, b.am.SOffs, b.am.SVals = b.sop, b.soffs, b.svals
	}
}

// ship sends a full or finished private frame to rank, or applies it
// inline when rank is this PE: owner-local frames never touch the wire.
// A sent frame recycles through its pre-bound callback like a shared one;
// the AM serializes during launch.
func (g *aggregator[T]) ship(rank int, b *aggBatch[T], reason telemetry.FlushReason) {
	pe := g.team.WorldPE(rank)
	if pe == g.w.MyPE() {
		b.seal(g.st.id)
		res, err := g.st.applyAggBatch(pe, rank, &b.am)
		g.resolveBatch(b, res, err)
		g.putBatch(b)
		return
	}
	g.note(rank, b, reason)
	b.seal(g.st.id)
	g.w.ExecAMCallback(pe, &b.am, b.onDone)
}

// full reports whether private frame b reached a flush threshold, and
// which.
func (g *aggregator[T]) full(b *aggBatch[T]) (telemetry.FlushReason, bool) {
	switch {
	case b.nops >= g.flushOps:
		return telemetry.FlushOps, true
	case b.bytes >= g.bufSize:
		return telemetry.FlushSize, true
	}
	return 0, false
}

// add appends one run to b's columns. evals is the run's values (len 1
// means broadcast when the broadcast flag is set); eout, when non-nil,
// receives previous values. A route is kept unless b is a private frame
// and the entry returns nothing.
func (b *aggBatch[T]) add(op Op, local, n int, broadcast bool,
	evals, ecas, eout []T, cd *scheduler.Countdown[[]T], elemSz int) {
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
	if b.cd == nil || eout != nil {
		b.routes = append(b.routes, aggRoute[T]{cd: cd, out: eout})
	}
	b.nops += n
	b.bytes += aggEntryOverhead + nv*elemSz
}

// append buffers one run in rank's shared frame, opening the frame in
// the destination queue when there is none; the queue ships it on the op
// cap or with its batch. A nil cd tracks the run on the shared pending
// counter instead of a countdown.
func (g *aggregator[T]) append(rank int, op Op, local, n int,
	evals, ecas, eout []T, cd *scheduler.Countdown[[]T], broadcast bool) {
	if cd != nil {
		cd.Add(1)
	} else {
		g.pending.Add(1)
	}
	g.w.AppendFrame(g.team.WorldPE(rank), func() (runtime.Frame, int, bool) {
		var opened runtime.Frame
		b := g.shared[rank]
		if b == nil {
			b = g.open(rank, g.spares.Get().(*aggBatch[T]))
			b.rank = rank
			g.shared[rank] = b
			opened = b
		}
		before := b.bytes
		b.add(op, local, n, broadcast, evals, ecas, eout, cd, g.elemSz)
		return opened, b.bytes - before, b.nops >= g.flushOps
	})
}

// private returns a large call's own frame for rank, opening it (with
// one reservation on the call's countdown) on first use.
func (g *aggregator[T]) private(frames []*aggBatch[T], rank int, cd *scheduler.Countdown[[]T]) *aggBatch[T] {
	b := frames[rank]
	if b == nil {
		b = g.open(rank, g.spares.Get().(*aggBatch[T]))
		b.cd = cd
		cd.Add(1)
		frames[rank] = b
	}
	return b
}

// addPrivate adds one run to a large call's own frame for rank, shipping
// the frame once it is full. A run that fills a frame by itself ships at
// once as a one-entry frame whose values alias the caller's slice, which
// saves a copy of the whole run; CAS and broadcast runs need their
// operands expanded, so they always go through frame columns.
func (g *aggregator[T]) addPrivate(frames []*aggBatch[T], rank int, op Op, local, n int,
	evals, ecas, eout []T, cd *scheduler.Countdown[[]T], broadcast bool) {
	if op != OpCAS && !broadcast && (n >= g.flushOps || n*g.elemSz >= g.bufSize) {
		b := g.open(rank, g.spares.New().(*aggBatch[T]))
		b.cd, b.alias, b.vals = cd, true, evals
		cd.Add(1)
		// nil evals: the values are already in place as the alias.
		b.add(op, local, n, false, nil, nil, eout, nil, g.elemSz)
		reason, _ := g.full(b)
		g.ship(rank, b, reason)
		return
	}
	b := g.private(frames, rank, cd)
	b.add(op, local, n, broadcast, evals, ecas, eout, nil, g.elemSz)
	if reason, full := g.full(b); full {
		frames[rank] = nil
		g.ship(rank, b, reason)
	}
}

// addScatter adds the single-element op at position pos of a large call
// to the scatter section of the call's frame for rank, shipping the frame
// once it is full. vals is the call's whole value column (one value or
// none when broadcast); out, when non-nil, receives the previous value.
func (g *aggregator[T]) addScatter(frames []*aggBatch[T], rank int, op Op, local, pos int,
	vals, out []T, cd *scheduler.Countdown[[]T], broadcast bool) {
	b := g.private(frames, rank, cd)
	if len(b.soffs) == 0 {
		g.openScatter(b, op, vals, out, broadcast)
	}
	b.soffs = append(b.soffs, uint32(local))
	if op != OpLoad && !broadcast {
		b.svals = append(b.svals, vals[pos])
		b.bytes += g.elemSz
	}
	if out != nil {
		b.spos = append(b.spos, int32(pos))
	}
	b.nops++
	b.bytes += scatterEntryBytes
	if reason, full := g.full(b); full {
		frames[rank] = nil
		g.ship(rank, b, reason)
	}
}

// openScatter starts b's scatter section for op, presizing the columns
// the call will fill to scatterCap.
func (g *aggregator[T]) openScatter(b *aggBatch[T], op Op, vals, out []T, broadcast bool) {
	if cap(b.soffs) < g.scatterCap {
		b.soffs = make([]uint32, 0, g.scatterCap)
	}
	b.sop = uint8(op)
	if out != nil {
		b.sop |= entryFetch
		b.fetch, b.sout = true, out
		if cap(b.spos) < g.scatterCap {
			b.spos = make([]int32, 0, g.scatterCap)
		}
	}
	switch {
	case op == OpLoad:
	case broadcast:
		var v T
		if len(vals) > 0 {
			v = vals[0]
		}
		b.svals = append(b.svals, v)
		b.bytes += g.elemSz
	case cap(b.svals) < g.scatterCap:
		b.svals = make([]T, 0, g.scatterCap)
	}
}

// batchOp is the element-op path behind every multi-index API method: it
// splits idxs into maximal contiguous same-destination runs and routes
// each to a frame. Calls of fewer than ArrayBatchSize indices apply
// owner-local runs inline and buffer remote runs in the shared frames.
// Larger calls fill private frames, owner-local ones included, and ship
// them all before returning; their single-element runs (all of a random
// workload) go to each frame's scatter section, except CAS and offsets
// that do not fit a uint32. The future resolves once every run completed,
// with previous values in input order for fetch-style ops.
func (c *core[T]) batchOp(op Op, fetch bool, idxs []int, vals, casOld []T) *scheduler.Future[[]T] {
	if len(vals) > 1 && len(vals) != len(idxs) {
		panic(fmt.Sprintf("array: %d values for %d indices", len(vals), len(idxs)))
	}
	if op == OpCAS && len(casOld) > 1 && len(casOld) != len(idxs) {
		panic("array: CAS old-value count mismatch")
	}
	if len(idxs) == 0 {
		promise, future := scheduler.NewPromise[[]T](c.w.Pool())
		promise.Complete(nil)
		return future
	}
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
	var frames []*aggBatch[T]
	if len(idxs) >= g.flushOps {
		frames = make([]*aggBatch[T], len(g.shared))
	}

	me := c.w.MyPE()
	geom := &c.st.geom
	broadcast := len(vals) <= 1 && op != OpLoad
	mergeRuns := geom.dist == Block || geom.npes == 1
	// Scatter positions are int32 slots of out.
	scatter := frames != nil && op != OpCAS && (out == nil || int64(len(idxs)) <= math.MaxInt32)
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
		if n == 1 && scatter && uint64(local) < scatterMaxOff {
			g.addScatter(frames, rank, op, local, i, vals, out, cd, broadcast)
			i++
			continue
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
		switch {
		case frames != nil:
			g.addPrivate(frames, rank, op, local, n, evals, ecas, eout, cd, broadcast)
		case g.team.WorldPE(rank) == me:
			// Owner-local run of a small call: apply immediately.
			cd.Add(1)
			cd.Done(c.st.applyAggRun(me, rank, op, local, n, evals, ecas, eout))
		default:
			g.append(rank, op, local, n, evals, ecas, eout, cd, broadcast)
		}
		i += n
	}
	for rank, b := range frames {
		if b != nil {
			g.ship(rank, b, telemetry.FlushDrain)
		}
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

// singleOp is the scalar path behind the one-element API methods. It
// skips the batch machinery entirely — no index or value slices, one
// countdown+future allocation per op — and hands a single run to the
// destination's shared frame (or applies it inline when the element is
// owner-local). append copies operand values into the frame columns, so
// the stack-backed one-element slices never escape.
func (c *core[T]) singleOp(op Op, fetch bool, idx int, val, casOld T) *scheduler.Future[[]T] {
	needOut := fetch || op == OpLoad || op == OpSwap || op == OpCAS
	g := c.agg()
	rank, local := c.st.geom.place(c.globalIndex(idx))
	vbuf, cbuf := [1]T{val}, [1]T{casOld}
	var evals, ecas []T
	if op != OpLoad {
		evals = vbuf[:]
	}
	if op == OpCAS {
		ecas = cbuf[:]
	}
	owner := g.team.WorldPE(rank) == c.w.MyPE()
	if !needOut {
		// Fire-and-forget scalar op: no per-op future at all. The shared
		// condition future (done ⇔ no buffered or in-flight ops) is the
		// return value, so the steady-state aggregated add/store path
		// allocates nothing.
		if owner {
			if err := c.st.applyAggRun(c.w.MyPE(), rank, op, local, 1, evals, nil, nil); err != nil {
				return scheduler.Fail[[]T](err)
			}
		} else {
			g.append(rank, op, local, 1, evals, nil, nil, nil, false)
		}
		return g.sharedF
	}
	out := make([]T, 1)
	valueFn := func() []T { return out }
	cd, future := scheduler.NewCountdown(c.w.Pool(), 1, valueFn)
	if owner {
		// Owner-local: apply immediately, no buffering.
		cd.Done(c.st.applyAggRun(c.w.MyPE(), rank, op, local, 1, evals, ecas, out))
	} else {
		g.append(rank, op, local, 1, evals, ecas, out, cd, false)
		cd.Done(nil) // release the submission reservation
	}
	return future
}

// ----- destination-side application ----------------------------------------

// aggAM carries one flushed destination frame: columnar run entries plus
// the packed operand values, then, when Flags has frameScatter, the
// scatter section (op byte, uint32 offsets, values), all moving through
// the zero-copy slice codec.
type aggAM[T serde.Number] struct {
	ID     uint64
	Flags  uint8
	Ops    []uint8
	Starts []int64
	Counts []int64
	Vals   []T
	CasOld []T
	SOp    uint8
	SOffs  []uint32
	SVals  []T
}

// ResetLamellar clears the AM for its decode pool (RegisterAMPooled):
// destination-side instances recycle after Exec instead of churning an
// allocation per delivered frame.
func (a *aggAM[T]) ResetLamellar() { *a = aggAM[T]{} }

func (a *aggAM[T]) MarshalLamellar(e *serde.Encoder) {
	e.PutUvarint(a.ID)
	e.PutU8(a.Flags)
	e.PutBytes(a.Ops)
	serde.PutNumericSliceAligned(e, a.Starts)
	serde.PutNumericSliceAligned(e, a.Counts)
	serde.PutNumericSliceAligned(e, a.Vals)
	serde.PutNumericSliceAligned(e, a.CasOld)
	if a.Flags&frameScatter != 0 {
		e.PutU8(a.SOp)
		serde.PutNumericSliceAligned(e, a.SOffs)
		serde.PutNumericSliceAligned(e, a.SVals)
	}
}

func (a *aggAM[T]) UnmarshalLamellar(d *serde.Decoder) error {
	// Views alias the received batch, which the runtime never reuses;
	// they are consumed inside Exec on the destination pool.
	a.ID = d.Uvarint()
	a.Flags = d.U8()
	a.Ops = d.Bytes()
	a.Starts = serde.NumericSliceViewAligned[int64](d)
	a.Counts = serde.NumericSliceViewAligned[int64](d)
	a.Vals = serde.NumericSliceViewAligned[T](d)
	a.CasOld = serde.NumericSliceViewAligned[T](d)
	if a.Flags&frameScatter != 0 {
		a.SOp = d.U8()
		a.SOffs = serde.NumericSliceViewAligned[uint32](d)
		a.SVals = serde.NumericSliceViewAligned[T](d)
	}
	return d.Err()
}

func (a *aggAM[T]) Exec(ctx *runtime.Context) any {
	st, rank := lookupState[T](ctx, a.ID)
	out, err := st.applyAggBatch(ctx.World.MyPE(), rank, a)
	if err != nil {
		panic(err) // converted to an origin-side error by the runtime
	}
	if a.Flags&frameWantOut != 0 {
		return out
	}
	return nil
}

// checkOp refuses an op the array's kind or element type cannot take: a
// write to a ReadOnlyArray, or an integer-only op on floats.
func checkOp(kind Kind, isFloat bool, op Op) error {
	if op.isWrite() && kind == KindReadOnly {
		return fmt.Errorf("array: %v on ReadOnlyArray", op)
	}
	if isFloat && (op == OpRem || (op >= OpAnd && op <= OpShr)) {
		return fmt.Errorf("array: %v on floating-point array", op)
	}
	return nil
}

// checkDivisors refuses an integer Div or Rem whose operands hold a zero.
func checkDivisors[T serde.Number](isFloat bool, op Op, vals []T) error {
	if isFloat || (op != OpDiv && op != OpRem) {
		return nil
	}
	for _, v := range vals {
		if v == 0 {
			return fmt.Errorf("array: integer %v by zero", op)
		}
	}
	return nil
}

// checkFrame validates a frame against rank's local length n before any
// entry applies, so a malformed frame fails whole instead of panicking
// part-way: the frame flags are known, the columns agree in length,
// every flag byte names a known op and modifiers, every run and scatter
// offset lies in [0, n), the value columns hold exactly what the entries
// consume, and no entry writes a ReadOnlyArray, divides an integer by
// zero, or asks a float for an integer-only op. The scatter section's op
// is never CAS and its value column holds nothing (loads), one broadcast
// value, or one value per offset. It returns how many previous values
// the frame fetches.
func checkFrame[T serde.Number](kind Kind, n int, a *aggAM[T]) (int, error) {
	ops, starts, counts, vals, casOld := a.Ops, a.Starts, a.Counts, a.Vals, a.CasOld
	if a.Flags&^(frameWantOut|frameScatter) != 0 {
		return 0, fmt.Errorf("array: agg frame has bad flags %#x", a.Flags)
	}
	if len(starts) != len(ops) || len(counts) != len(ops) {
		return 0, fmt.Errorf("array: agg frame has %d ops, %d starts, %d counts", len(ops), len(starts), len(counts))
	}
	isFloat := serde.KindOf[T]() != 0
	nv, nc, nout := 0, 0, 0
	for k, f := range ops {
		op := Op(f & entryOpMask)
		if f&^(entryOpMask|entryBroadcast|entryFetch) != 0 || op > OpCAS ||
			(op == OpLoad && f&entryFetch == 0) {
			return 0, fmt.Errorf("array: agg entry %d has bad flags %#x", k, f)
		}
		start, cnt := starts[k], counts[k]
		if start < 0 || cnt < 0 || cnt > int64(n)-start {
			return 0, fmt.Errorf("array: agg entry [%d,%d) out of local range [0,%d)", start, start+cnt, n)
		}
		if err := checkOp(kind, isFloat, op); err != nil {
			return 0, err
		}
		if op != OpLoad {
			w := int(cnt)
			if f&entryBroadcast != 0 {
				w = 1
			}
			if w > len(vals)-nv {
				return 0, fmt.Errorf("array: agg frame short of operand values")
			}
			if err := checkDivisors(isFloat, op, vals[nv:nv+w]); err != nil {
				return 0, err
			}
			nv += w
		}
		if op == OpCAS {
			nc += int(cnt)
		}
		if f&entryFetch != 0 {
			nout += int(cnt)
		}
	}
	if nv != len(vals) || nc != len(casOld) {
		return 0, fmt.Errorf("array: agg frame carries %d values and %d CAS operands, entries use %d and %d",
			len(vals), len(casOld), nv, nc)
	}
	if a.Flags&frameScatter == 0 {
		return nout, nil
	}
	f, offs, svals := a.SOp, a.SOffs, a.SVals
	op := Op(f & entryOpMask)
	if f&^(entryOpMask|entryFetch) != 0 || op >= OpCAS || (op == OpLoad && f&entryFetch == 0) {
		return 0, fmt.Errorf("array: agg scatter section has bad op %#x", f)
	}
	if err := checkOp(kind, isFloat, op); err != nil {
		return 0, err
	}
	if op == OpLoad && len(svals) != 0 || op != OpLoad && len(svals) != 1 && len(svals) != len(offs) {
		return 0, fmt.Errorf("array: agg scatter section has %d values for %d offsets", len(svals), len(offs))
	}
	if err := checkDivisors(isFloat, op, svals); err != nil {
		return 0, err
	}
	var hi uint32
	for _, o := range offs {
		hi = max(hi, o)
	}
	if len(offs) > 0 && (hi == scatterMaxOff || int64(hi) >= int64(n)) {
		return 0, fmt.Errorf("array: agg scatter offset %d out of local range [0,%d)", hi, n)
	}
	if f&entryFetch != 0 {
		nout += len(offs)
	}
	return nout, nil
}

// applyAggBatch executes a frame on rank's local data, honoring the
// array's kind: its run entries sequentially, then its scatter section.
// It returns the concatenated previous values of fetch-flagged entries,
// the section's last. A malformed frame returns an error and applies
// nothing.
func (s *sharedState[T]) applyAggBatch(worldPE, rank int, a *aggAM[T]) ([]T, error) {
	kind := Kind(s.kind.Load())
	data := s.region.Local(worldPE)
	nout, err := checkFrame(kind, s.geom.localLen(rank), a)
	if err != nil {
		return nil, err
	}
	var out []T
	if nout > 0 {
		out = make([]T, nout)
	}
	scatter := a.Flags&frameScatter != 0
	if kind == KindLocalLock {
		// One rank-lock acquisition for the whole frame — the point of
		// aggregating LocalLockArray ops.
		anyWrite := scatter && Op(a.SOp&entryOpMask).isWrite()
		for _, f := range a.Ops {
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
	vals, casOld := a.Vals, a.CasOld
	vi, ci, oi := 0, 0, 0
	for k, f := range a.Ops {
		op := Op(f & entryOpMask)
		start := int(a.Starts[k])
		cnt := int(a.Counts[k])
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
	if scatter && len(a.SOffs) > 0 {
		var sout []T
		if a.SOp&entryFetch != 0 {
			sout = out[oi:]
		}
		s.applyScatter(rank, kind, Op(a.SOp&entryOpMask), data, a.SOffs, a.SVals, sout)
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

// applyScatter applies a scatter section: op at every offset of data,
// with vals holding one broadcast value, one value per offset, or nothing
// (loads); out, when non-nil, receives each previous value. The kind and
// element-type dispatch happens once per section; nativeScatter and
// plainScatter's load case are the tight loops of the measured shapes. For KindLocalLock the caller already holds the
// rank lock.
func (s *sharedState[T]) applyScatter(rank int, kind Kind, op Op, data []T, offs []uint32, vals, out []T) {
	switch {
	case kind == KindAtomic && s.native:
		if nativeScatter(op, data, offs, vals, out) {
			return
		}
		var zero T
		for k, o := range offs {
			prev := nativeApply(op, &data[o], valAtRun(vals, k), zero)
			if out != nil {
				out[k] = prev
			}
		}
	case kind == KindAtomic:
		locks := s.elocks[rank]
		for k, o := range offs {
			l := &locks[o]
			lockElem(l)
			cur := data[o]
			if op.isWrite() {
				data[o] = applyScalar(op, cur, valAtRun(vals, k))
			}
			unlockElem(l)
			if out != nil {
				out[k] = cur
			}
		}
	default:
		plainScatter(op, data, offs, vals, out)
	}
}

// plainScatter is the unsynchronized scatter kernel (Unsafe, ReadOnly
// loads, and LocalLock under the caller-held rank lock).
func plainScatter[T serde.Number](op Op, data []T, offs []uint32, vals, out []T) {
	switch {
	case op == OpLoad:
		out = out[:len(offs)]
		for k, o := range offs {
			out[k] = data[o]
		}
	default:
		for k, o := range offs {
			cur := data[o]
			data[o] = applyScalar(op, cur, valAtRun(vals, k))
			if out != nil {
				out[k] = cur
			}
		}
	}
}

// nativeScatter is the native-atomic scatter kernel for 64-bit integer
// elements. It has a loop only for the shape a measured workload sends,
// a histogram's broadcast add without fetch; int64 shares the uint64
// loop, whose two's-complement add is bit-identical. It reports false for
// any other element type or shape, which then takes the per-element
// generic path.
func nativeScatter[T serde.Number](op Op, data []T, offs []uint32, vals, out []T) bool {
	if op != OpAdd || out != nil || len(vals) != 1 {
		return false
	}
	switch any(data).(type) {
	case []uint64, []int64:
		d, v := asU64(data), asU64(vals)[0]
		for _, o := range offs {
			atomic.AddUint64(&d[o], v)
		}
		return true
	}
	return false
}

// asU64 views a slice of 8-byte integers as []uint64.
func asU64[T serde.Number](s []T) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// nativeRun is the native-atomic run kernel. The monomorphic fast path
// matters: a per-element any-based type switch would dominate the
// aggregated path's CPU cost. int64 shares the uint64 loop, whose
// two's-complement add, store and load are bit-identical.
func nativeRun[T serde.Number](op Op, seg, evals, ecas, eout []T) {
	switch any(seg).(type) {
	case []uint64, []int64:
		if nativeRunU64(op, asU64(seg), asU64(evals), asU64(eout)) {
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
