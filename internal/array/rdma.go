package array

import (
	"sync/atomic"

	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/serde"
)

// RDMA-like operations (§III-F2). Safe kinds emulate put/get with
// owner-side AMs so all access to a remote PE's data is managed by that
// PE; UnsafeArray additionally exposes direct RDMA (*Unchecked), and
// ReadOnlyArray exposes a direct RDMA get (its data cannot change).

// putRange writes vals at view-relative index start, splitting the run by
// owning PE and dispatching owner-side range-put AMs.
func (c *core[T]) putRange(start int, vals []T) *scheduler.Future[struct{}] {
	if len(vals) == 0 {
		promise, future := scheduler.NewPromise[struct{}](c.w.Pool())
		promise.Complete(struct{}{})
		return future
	}
	g := c.globalIndex(start)
	if start+len(vals) > c.len {
		panic("array: put past end of array view")
	}
	type run struct {
		rank, local, off, n int
	}
	var runs []run
	c.st.geom.blockRanges(g, len(vals), func(rank, local, gIdx, runLen int) {
		runs = append(runs, run{rank, local, gIdx - g, runLen})
	})
	cd, future := scheduler.NewCountdown[struct{}](c.w.Pool(), len(runs), nil)
	for _, r := range runs {
		r := r
		destPE := c.team.WorldPE(r.rank)
		seg := vals[r.off : r.off+r.n]
		if destPE == c.w.MyPE() {
			c.w.Pool().Submit(func() {
				cd.Done(c.st.applyRange(destPE, r.rank, r.local, seg))
			})
			continue
		}
		am := &rangePutAM[T]{ID: c.st.id, Start: r.local, Vals: seg}
		c.w.ExecAMReturn(destPE, am).OnDone(func(_ any, err error) { cd.Done(err) })
	}
	return future
}

// getRange reads n elements at view-relative index start via owner-side
// range-get AMs, preserving order.
func (c *core[T]) getRange(start, n int) *scheduler.Future[[]T] {
	if n == 0 {
		promise, future := scheduler.NewPromise[[]T](c.w.Pool())
		promise.Complete(nil)
		return future
	}
	g := c.globalIndex(start)
	if start+n > c.len {
		panic("array: get past end of array view")
	}
	out := make([]T, n)
	type run struct {
		rank, local, off, n int
	}
	var runs []run
	c.st.geom.blockRanges(g, n, func(rank, local, gIdx, runLen int) {
		runs = append(runs, run{rank, local, gIdx - g, runLen})
	})
	cd, future := scheduler.NewCountdown(c.w.Pool(), len(runs), func() []T { return out })
	for _, r := range runs {
		r := r
		destPE := c.team.WorldPE(r.rank)
		if destPE == c.w.MyPE() {
			c.w.Pool().Submit(func() {
				vals, err := c.st.readRange(destPE, r.rank, r.local, r.n)
				if err == nil {
					copy(out[r.off:], vals)
				}
				cd.Done(err)
			})
			continue
		}
		am := &rangeGetAM[T]{ID: c.st.id, Start: r.local, N: r.n}
		runtime.ExecTyped[[]T](c.w, destPE, am).OnDone(func(vals []T, err error) {
			if err == nil {
				copy(out[r.off:], vals)
			}
			cd.Done(err)
		})
	}
	return future
}

// putDirect performs an RDMA put straight into the owners' memory with no
// access control — the "unchecked" path of Fig. 2. The caller must
// guarantee no concurrent access, as with raw memory regions.
func (c *core[T]) putDirect(start int, vals []T) {
	if len(vals) == 0 {
		return
	}
	g := c.globalIndex(start)
	if start+len(vals) > c.len {
		panic("array: put past end of array view")
	}
	me := c.w.MyPE()
	c.st.geom.blockRanges(g, len(vals), func(rank, local, gIdx, runLen int) {
		off := gIdx - g
		c.st.region.Put(me, c.team.WorldPE(rank), local, vals[off:off+runLen])
	})
}

// getDirect performs an RDMA get straight from the owners' memory.
func (c *core[T]) getDirect(start, n int) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	g := c.globalIndex(start)
	if start+n > c.len {
		panic("array: get past end of array view")
	}
	me := c.w.MyPE()
	c.st.geom.blockRanges(g, n, func(rank, local, gIdx, runLen int) {
		off := gIdx - g
		c.st.region.Get(me, c.team.WorldPE(rank), local, out[off:off+runLen])
	})
	return out
}

// bigPut chooses the transfer method by size like the paper's UnsafeArray
// (§IV-A): below the aggregation threshold data travels inside Vec-style
// AMs; above it the owner pulls the run via RDMA (one small descriptor AM
// plus a bulk transfer at RDMA cost), reproducing the Fig. 2 crossover.
func (c *core[T]) bigPut(start int, vals []T) *scheduler.Future[struct{}] {
	if len(vals) <= c.st.putAMMax {
		return c.putRange(start, vals)
	}
	// Owner-pull: write into a staging region we own, then ask each owner
	// to RDMA-get its run. The get is accounted to the owner (the target
	// initiates, matching the paper's description).
	promise, future := scheduler.NewPromise[struct{}](c.w.Pool())
	g := c.globalIndex(start)
	me := c.w.MyPE()
	type run struct{ rank, local, off, n int }
	var runs []run
	c.st.geom.blockRanges(g, len(vals), func(rank, local, gIdx, runLen int) {
		runs = append(runs, run{rank, local, gIdx - g, runLen})
	})
	var pending atomic.Int64
	pending.Store(int64(len(runs)))
	for _, r := range runs {
		r := r
		destPE := c.team.WorldPE(r.rank)
		seg := vals[r.off : r.off+r.n]
		if destPE == me {
			c.w.Pool().Submit(func() {
				_ = c.st.applyRange(destPE, r.rank, r.local, seg)
				if pending.Add(-1) == 0 {
					promise.Complete(struct{}{})
				}
			})
			continue
		}
		// The direct region write models the owner-side RDMA pull: one
		// small AM (the descriptor) plus a bulk transfer at RDMA cost.
		am := &pullNotifyAM[T]{ID: c.st.id, Start: r.local, N: r.n, SrcPE: me}
		c.st.pullStage(me, destPE, r.local, seg)
		c.w.ExecAMReturn(destPE, am).OnDone(func(_ any, err error) {
			if pending.Add(-1) == 0 {
				promise.Complete(struct{}{})
			}
		})
	}
	return future
}

// pullStage stages data for an owner-side pull. In the simulation the
// bytes are written through the fabric (accounted at RDMA cost) into the
// owner's memory directly; the notify AM then applies kind semantics.
func (s *sharedState[T]) pullStage(srcPE, dstPE, local int, vals []T) {
	s.region.Put(srcPE, dstPE, local, vals)
}

// pullNotifyAM tells the owner that a staged run landed; the owner
// re-applies its safety guarantee over the landed range (for UnsafeArray
// this is a no-op beyond bookkeeping).
type pullNotifyAM[T serde.Number] struct {
	ID    uint64
	Start int
	N     int
	SrcPE int
}

func (a *pullNotifyAM[T]) MarshalLamellar(e *serde.Encoder) {
	e.PutUvarint(a.ID)
	e.PutInt(a.Start)
	e.PutInt(a.N)
	e.PutInt(a.SrcPE)
}

func (a *pullNotifyAM[T]) UnmarshalLamellar(d *serde.Decoder) error {
	a.ID = d.Uvarint()
	a.Start = d.Int()
	a.N = d.Int()
	a.SrcPE = d.Int()
	return d.Err()
}

func (a *pullNotifyAM[T]) Exec(ctx *runtime.Context) any {
	// Data already landed via the staged RDMA write; nothing to move.
	return nil
}
