package array

import (
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/serde"
)

// CASResult reports the outcome of a compare-exchange: the previous value
// and whether the exchange happened (the paper's Result<T,T>).
type CASResult[T serde.Number] struct {
	Prev T
	OK   bool
}

// ----- AtomicArray ----------------------------------------------------------

// Len reports the (view's) global element count.
func (a *AtomicArray[T]) Len() int { return a.c.Len() }

// Team returns the constructing team.
func (a *AtomicArray[T]) Team() *runtime.Team { return a.c.Team() }

// Dist reports the layout.
func (a *AtomicArray[T]) Dist() Distribution { return a.c.Dist() }

// SubArray returns a view of [start, end); the view shares storage.
func (a *AtomicArray[T]) SubArray(start, end int) *AtomicArray[T] {
	return &AtomicArray[T]{c: a.c.sub(start, end)}
}

// Clone takes an additional handle reference.
func (a *AtomicArray[T]) Clone() *AtomicArray[T] { return &AtomicArray[T]{c: a.c.clone()} }

// Drop releases this handle; storage is freed when all handles on all PEs
// are gone (asynchronously, via the Darc protocol).
func (a *AtomicArray[T]) Drop() { a.c.drop() }

// Add atomically adds v to the element at index i (array.add(i, v)).
func (a *AtomicArray[T]) Add(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpAdd, false, i, v, zeroOf[T]())
}

// FetchAdd adds v and resolves with the previous value.
func (a *AtomicArray[T]) FetchAdd(i int, v T) *scheduler.Future[T] {
	return first(a.c.singleOp(OpAdd, true, i, v, zeroOf[T]()))
}

// Sub atomically subtracts.
func (a *AtomicArray[T]) Sub(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpSub, false, i, v, zeroOf[T]())
}

// Mul atomically multiplies.
func (a *AtomicArray[T]) Mul(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpMul, false, i, v, zeroOf[T]())
}

// Div atomically divides.
func (a *AtomicArray[T]) Div(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpDiv, false, i, v, zeroOf[T]())
}

// And/Or/Xor/Shl/Shr perform atomic bitwise updates.
func (a *AtomicArray[T]) And(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpAnd, false, i, v, zeroOf[T]())
}

// Or performs an atomic bitwise or.
func (a *AtomicArray[T]) Or(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpOr, false, i, v, zeroOf[T]())
}

// Xor performs an atomic bitwise xor.
func (a *AtomicArray[T]) Xor(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpXor, false, i, v, zeroOf[T]())
}

// Store atomically writes v at index i.
func (a *AtomicArray[T]) Store(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpStore, false, i, v, zeroOf[T]())
}

// Load atomically reads index i.
func (a *AtomicArray[T]) Load(i int) *scheduler.Future[T] {
	return first(a.c.singleOp(OpLoad, true, i, zeroOf[T](), zeroOf[T]()))
}

// Swap atomically replaces index i with v, resolving with the old value.
func (a *AtomicArray[T]) Swap(i int, v T) *scheduler.Future[T] {
	return first(a.c.singleOp(OpSwap, true, i, v, zeroOf[T]()))
}

// CompareExchange stores new at i iff the current value equals old.
func (a *AtomicArray[T]) CompareExchange(i int, old, new T) *scheduler.Future[CASResult[T]] {
	f := a.c.singleOp(OpCAS, true, i, new, old)
	return scheduler.Map(f, func(prev []T) CASResult[T] {
		return CASResult[T]{Prev: prev[0], OK: prev[0] == old}
	})
}

// BatchOp applies op at each index with a single broadcast value — the
// "Many Indices - One value" batch shape.
func (a *AtomicArray[T]) BatchOp(op Op, idxs []int, v T) *scheduler.Future[[]T] {
	return a.c.batchOp(op, false, idxs, []T{v}, nil)
}

// BatchAdd adds v at every index (Listing 2's histogram kernel).
func (a *AtomicArray[T]) BatchAdd(idxs []int, v T) *scheduler.Future[[]T] {
	return a.c.batchOp(OpAdd, false, idxs, []T{v}, nil)
}

// BatchAddVals adds vals[k] at idxs[k] — "Many Indices - Many values".
func (a *AtomicArray[T]) BatchAddVals(idxs []int, vals []T) *scheduler.Future[[]T] {
	return a.c.batchOp(OpAdd, false, idxs, vals, nil)
}

// BatchOpAt applies vals sequentially at one index — "One Index - Many
// values" (e.g. array.batch_mul(20, [2, 10])).
func (a *AtomicArray[T]) BatchOpAt(op Op, idx int, vals []T) *scheduler.Future[[]T] {
	idxs := make([]int, len(vals))
	for k := range idxs {
		idxs[k] = idx
	}
	return a.c.batchOp(op, false, idxs, vals, nil)
}

// BatchStore stores v at every index (array.batch_store([20,2], 10)).
func (a *AtomicArray[T]) BatchStore(idxs []int, v T) *scheduler.Future[[]T] {
	return a.c.batchOp(OpStore, false, idxs, []T{v}, nil)
}

// BatchOpVals applies op with vals[k] at idxs[k] — one-to-one shape (e.g.
// array.batch_bit_or([0,105,67], [127,0,64])).
func (a *AtomicArray[T]) BatchOpVals(op Op, idxs []int, vals []T) *scheduler.Future[[]T] {
	return a.c.batchOp(op, false, idxs, vals, nil)
}

// BatchFetchOp is the fetch variant of BatchOp, resolving with previous
// values in input order.
func (a *AtomicArray[T]) BatchFetchOp(op Op, idxs []int, v T) *scheduler.Future[[]T] {
	return a.c.batchOp(op, true, idxs, []T{v}, nil)
}

// BatchLoad reads every index.
func (a *AtomicArray[T]) BatchLoad(idxs []int) *scheduler.Future[[]T] {
	return a.c.batchOp(OpLoad, true, idxs, nil, nil)
}

// BatchCompareExchange attempts news[k] at idxs[k] iff the element equals
// old, resolving with the previous values (randperm's dart throw).
func (a *AtomicArray[T]) BatchCompareExchange(idxs []int, old T, news []T) *scheduler.Future[[]T] {
	return a.c.batchOp(OpCAS, true, idxs, news, []T{old})
}

// Put writes vals at [start, start+len(vals)) through owner-side AMs that
// apply per-element atomic stores (the safe RDMA-like put).
func (a *AtomicArray[T]) Put(start int, vals []T) *scheduler.Future[struct{}] {
	return a.c.putRange(start, vals)
}

// Get reads [start, start+n) through owner-side AMs with atomic loads.
func (a *AtomicArray[T]) Get(start, n int) *scheduler.Future[[]T] {
	return a.c.getRange(start, n)
}

// FlushBatches puts every element op this PE buffered on the wire now
// instead of at a threshold or the next runtime flush cycle. The shared
// frames live in the runtime's destination queues, so this is
// World.Flush: it drains those queues whole, other arrays' frames and
// pending AMs included.
func (a *AtomicArray[T]) FlushBatches() { a.c.w.Flush() }

// Sum launches one-sided local reductions and resolves with the total.
func (a *AtomicArray[T]) Sum() *scheduler.Future[T] { return a.c.reduce(ReduceSum) }

// Prod reduces with multiplication.
func (a *AtomicArray[T]) Prod() *scheduler.Future[T] { return a.c.reduce(ReduceProd) }

// Min reduces to the minimum element.
func (a *AtomicArray[T]) Min() *scheduler.Future[T] { return a.c.reduce(ReduceMin) }

// Max reduces to the maximum element.
func (a *AtomicArray[T]) Max() *scheduler.Future[T] { return a.c.reduce(ReduceMax) }

// LocalData returns the calling PE's chunk. Elements are accessed without
// atomics — safe only inside phases where no remote ops are in flight
// (e.g. between barriers); prefer Load/Store otherwise.
func (a *AtomicArray[T]) LocalData() []T { return a.c.localSlice() }

// ----- ReadOnlyArray ---------------------------------------------------------

// Len reports the (view's) global element count.
func (a *ReadOnlyArray[T]) Len() int { return a.c.Len() }

// Team returns the constructing team.
func (a *ReadOnlyArray[T]) Team() *runtime.Team { return a.c.Team() }

// Dist reports the layout.
func (a *ReadOnlyArray[T]) Dist() Distribution { return a.c.Dist() }

// SubArray returns a view of [start, end).
func (a *ReadOnlyArray[T]) SubArray(start, end int) *ReadOnlyArray[T] {
	return &ReadOnlyArray[T]{c: a.c.sub(start, end)}
}

// Clone takes an additional handle reference.
func (a *ReadOnlyArray[T]) Clone() *ReadOnlyArray[T] { return &ReadOnlyArray[T]{c: a.c.clone()} }

// Drop releases this handle.
func (a *ReadOnlyArray[T]) Drop() { a.c.drop() }

// Load reads index i via the owner.
func (a *ReadOnlyArray[T]) Load(i int) *scheduler.Future[T] {
	return first(a.c.singleOp(OpLoad, true, i, zeroOf[T](), zeroOf[T]()))
}

// BatchLoad reads every index via owner-side AMs (the IndexGather kernel).
func (a *ReadOnlyArray[T]) BatchLoad(idxs []int) *scheduler.Future[[]T] {
	return a.c.batchOp(OpLoad, true, idxs, nil, nil)
}

// Get reads [start, start+n) via owner-side AMs.
func (a *ReadOnlyArray[T]) Get(start, n int) *scheduler.Future[[]T] {
	return a.c.getRange(start, n)
}

// GetDirect performs a direct RDMA get: sound without coordination because
// read-only data cannot change under the reader (§III-F2).
func (a *ReadOnlyArray[T]) GetDirect(start, n int) []T {
	return a.c.getDirect(start, n)
}

// Sum reduces with addition.
func (a *ReadOnlyArray[T]) Sum() *scheduler.Future[T] { return a.c.reduce(ReduceSum) }

// Prod reduces with multiplication.
func (a *ReadOnlyArray[T]) Prod() *scheduler.Future[T] { return a.c.reduce(ReduceProd) }

// Min reduces to the minimum element.
func (a *ReadOnlyArray[T]) Min() *scheduler.Future[T] { return a.c.reduce(ReduceMin) }

// Max reduces to the maximum element.
func (a *ReadOnlyArray[T]) Max() *scheduler.Future[T] { return a.c.reduce(ReduceMax) }

// LocalData returns the calling PE's chunk (read it, don't write it).
func (a *ReadOnlyArray[T]) LocalData() []T { return a.c.localSlice() }

// ----- LocalLockArray ----------------------------------------------------------

// Len reports the (view's) global element count.
func (a *LocalLockArray[T]) Len() int { return a.c.Len() }

// Team returns the constructing team.
func (a *LocalLockArray[T]) Team() *runtime.Team { return a.c.Team() }

// Dist reports the layout.
func (a *LocalLockArray[T]) Dist() Distribution { return a.c.Dist() }

// SubArray returns a view of [start, end).
func (a *LocalLockArray[T]) SubArray(start, end int) *LocalLockArray[T] {
	return &LocalLockArray[T]{c: a.c.sub(start, end)}
}

// Clone takes an additional handle reference.
func (a *LocalLockArray[T]) Clone() *LocalLockArray[T] { return &LocalLockArray[T]{c: a.c.clone()} }

// Drop releases this handle.
func (a *LocalLockArray[T]) Drop() { a.c.drop() }

// BatchOp applies op at each index with one value, under the owners' locks.
func (a *LocalLockArray[T]) BatchOp(op Op, idxs []int, v T) *scheduler.Future[[]T] {
	return a.c.batchOp(op, false, idxs, []T{v}, nil)
}

// BatchAdd adds v at every index.
func (a *LocalLockArray[T]) BatchAdd(idxs []int, v T) *scheduler.Future[[]T] {
	return a.c.batchOp(OpAdd, false, idxs, []T{v}, nil)
}

// BatchLoad reads every index under the owners' read locks.
func (a *LocalLockArray[T]) BatchLoad(idxs []int) *scheduler.Future[[]T] {
	return a.c.batchOp(OpLoad, true, idxs, nil, nil)
}

// BatchFetchOp is the fetch variant of BatchOp, resolving with previous
// values in input order (under the owners' write locks).
func (a *LocalLockArray[T]) BatchFetchOp(op Op, idxs []int, v T) *scheduler.Future[[]T] {
	return a.c.batchOp(op, true, idxs, []T{v}, nil)
}

// Put writes a range; the owner holds its write lock for the memcopy
// (the Fig. 2 LocalLockArray path).
func (a *LocalLockArray[T]) Put(start int, vals []T) *scheduler.Future[struct{}] {
	return a.c.putRange(start, vals)
}

// Get reads a range under the owners' read locks.
func (a *LocalLockArray[T]) Get(start, n int) *scheduler.Future[[]T] {
	return a.c.getRange(start, n)
}

// Sum reduces with addition.
func (a *LocalLockArray[T]) Sum() *scheduler.Future[T] { return a.c.reduce(ReduceSum) }

// FlushBatches drains this PE's aggregation buffers for the array (see
// AtomicArray.FlushBatches).
func (a *LocalLockArray[T]) FlushBatches() { a.c.w.Flush() }

// Min reduces to the minimum element.
func (a *LocalLockArray[T]) Min() *scheduler.Future[T] { return a.c.reduce(ReduceMin) }

// Max reduces to the maximum element.
func (a *LocalLockArray[T]) Max() *scheduler.Future[T] { return a.c.reduce(ReduceMax) }

// ReadLocal runs fn with the local read lock held.
func (a *LocalLockArray[T]) ReadLocal(fn func(data []T)) {
	lk := a.c.st.rwLocks[a.c.myRank()]
	lk.RLock()
	defer lk.RUnlock()
	fn(a.c.localSlice())
}

// WriteLocal runs fn with the local write lock held.
func (a *LocalLockArray[T]) WriteLocal(fn func(data []T)) {
	lk := a.c.st.rwLocks[a.c.myRank()]
	lk.Lock()
	defer lk.Unlock()
	fn(a.c.localSlice())
}

// ----- UnsafeArray --------------------------------------------------------------

// Len reports the (view's) global element count.
func (a *UnsafeArray[T]) Len() int { return a.c.Len() }

// Team returns the constructing team.
func (a *UnsafeArray[T]) Team() *runtime.Team { return a.c.Team() }

// Dist reports the layout.
func (a *UnsafeArray[T]) Dist() Distribution { return a.c.Dist() }

// SubArray returns a view of [start, end).
func (a *UnsafeArray[T]) SubArray(start, end int) *UnsafeArray[T] {
	return &UnsafeArray[T]{c: a.c.sub(start, end)}
}

// Clone takes an additional handle reference.
func (a *UnsafeArray[T]) Clone() *UnsafeArray[T] { return &UnsafeArray[T]{c: a.c.clone()} }

// Drop releases this handle.
func (a *UnsafeArray[T]) Drop() { a.c.drop() }

// BatchOp applies op with no access control on the owners.
func (a *UnsafeArray[T]) BatchOp(op Op, idxs []int, v T) *scheduler.Future[[]T] {
	return a.c.batchOp(op, false, idxs, []T{v}, nil)
}

// BatchAdd adds v at every index with no access control.
func (a *UnsafeArray[T]) BatchAdd(idxs []int, v T) *scheduler.Future[[]T] {
	return a.c.batchOp(OpAdd, false, idxs, []T{v}, nil)
}

// BatchLoad reads every index with no access control.
func (a *UnsafeArray[T]) BatchLoad(idxs []int) *scheduler.Future[[]T] {
	return a.c.batchOp(OpLoad, true, idxs, nil, nil)
}

// Put transfers a range using the AM/owner-pull strategy of §IV-A
// (Vec-style AMs below the aggregation threshold, owner pull above).
func (a *UnsafeArray[T]) Put(start int, vals []T) *scheduler.Future[struct{}] {
	return a.c.bigPut(start, vals)
}

// Get reads a range through owner-side AMs.
func (a *UnsafeArray[T]) Get(start, n int) *scheduler.Future[[]T] {
	return a.c.getRange(start, n)
}

// PutUnchecked performs a blocking direct RDMA put with no access control
// and no runtime termination detection — the caller coordinates (e.g.
// barriers or flag patterns), as in the Fig. 2 "unchecked" series.
func (a *UnsafeArray[T]) PutUnchecked(start int, vals []T) {
	a.c.putDirect(start, vals)
}

// GetUnchecked performs a blocking direct RDMA get with no access control.
func (a *UnsafeArray[T]) GetUnchecked(start, n int) []T {
	return a.c.getDirect(start, n)
}

// Sum reduces with addition.
func (a *UnsafeArray[T]) Sum() *scheduler.Future[T] { return a.c.reduce(ReduceSum) }

// FlushBatches drains this PE's aggregation buffers for the array (see
// AtomicArray.FlushBatches).
func (a *UnsafeArray[T]) FlushBatches() { a.c.w.Flush() }

// Min reduces to the minimum element.
func (a *UnsafeArray[T]) Min() *scheduler.Future[T] { return a.c.reduce(ReduceMin) }

// Max reduces to the maximum element.
func (a *UnsafeArray[T]) Max() *scheduler.Future[T] { return a.c.reduce(ReduceMax) }

// LocalData returns the calling PE's chunk with no protection whatsoever.
func (a *UnsafeArray[T]) LocalData() []T { return a.c.localSlice() }

// ----- placement introspection (KV routing layer, ISSUE 10) -----------------

// rankOf reports the team rank owning (view-relative) index i.
func (c *core[T]) rankOf(i int) int {
	rank, _ := c.st.geom.place(c.globalIndex(i))
	return rank
}

// localRange reports the global index range [start, start+n) backing the
// calling PE's local storage of the full (unviewed) array.
func (c *core[T]) localRange() (start, n int) {
	r := c.myRank()
	return c.st.geom.globalOf(r, 0), c.st.geom.localLen(r)
}

// RankOf reports the team rank owning index i under the distribution —
// the index→PE routing the KV layer shards by.
func (a *AtomicArray[T]) RankOf(i int) int { return a.c.rankOf(i) }

// LocalRange reports the global range [start, start+n) stored on the
// calling PE (pairs with LocalData for owner-side scans).
func (a *AtomicArray[T]) LocalRange() (start, n int) { return a.c.localRange() }

// RankOf reports the team rank owning index i under the distribution.
func (a *LocalLockArray[T]) RankOf(i int) int { return a.c.rankOf(i) }

// LocalRange reports the global range [start, start+n) stored on the
// calling PE (pairs with ReadLocal for owner-side scans).
func (a *LocalLockArray[T]) LocalRange() (start, n int) { return a.c.localRange() }

// first adapts a batch future of one element to a scalar future.
func first[T serde.Number](f *scheduler.Future[[]T]) *scheduler.Future[T] {
	return scheduler.Map(f, func(vals []T) T {
		if len(vals) == 0 {
			var zero T
			return zero
		}
		return vals[0]
	})
}

// ----- additional element-op conveniences (paper §III-F3 operator list) -----

// Shl atomically shifts the element left by v bits.
func (a *AtomicArray[T]) Shl(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpShl, false, i, v, zeroOf[T]())
}

// Shr atomically shifts the element right by v bits.
func (a *AtomicArray[T]) Shr(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpShr, false, i, v, zeroOf[T]())
}

// Rem atomically replaces the element with its remainder mod v.
func (a *AtomicArray[T]) Rem(i int, v T) *scheduler.Future[[]T] {
	return a.c.singleOp(OpRem, false, i, v, zeroOf[T]())
}

// FetchOp applies op at index i and resolves with the previous value (the
// generic fetch variant; FetchAdd etc. are the common special cases).
func (a *AtomicArray[T]) FetchOp(op Op, i int, v T) *scheduler.Future[T] {
	return first(a.c.singleOp(op, true, i, v, zeroOf[T]()))
}

// FetchSub subtracts and resolves with the previous value.
func (a *AtomicArray[T]) FetchSub(i int, v T) *scheduler.Future[T] {
	return first(a.c.singleOp(OpSub, true, i, v, zeroOf[T]()))
}

// BatchOpVals on LocalLockArray — one-to-one batch under the owner locks.
func (a *LocalLockArray[T]) BatchOpVals(op Op, idxs []int, vals []T) *scheduler.Future[[]T] {
	return a.c.batchOp(op, false, idxs, vals, nil)
}

// BatchOpVals on UnsafeArray — one-to-one batch with no access control.
func (a *UnsafeArray[T]) BatchOpVals(op Op, idxs []int, vals []T) *scheduler.Future[[]T] {
	return a.c.batchOp(op, false, idxs, vals, nil)
}
