package array

import (
	"fmt"
	"iter"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/scheduler"
	"repro/internal/serde"
)

// Iteration (§III-F4). Three iterator families:
//
//   - DistIter: distributed parallel iteration — collective over the PEs
//     holding data; each PE's executor processes its local elements in
//     parallel chunks. Obtain with XArray.DistIter().
//   - LocalIter: one-sided parallel iteration over the calling PE's local
//     data only. Obtain with XArray.LocalIter().
//   - OneSidedIter: serial iteration over the *entire* array from one
//     calling PE, with runtime-managed buffered transfers from remote
//     PEs. Obtain with XArray.OneSidedIter(bufElems).
//
// DistIter/LocalIter are lazy chains (filter, enumerate, skip, step_by,
// take as methods; map/filter_map as free functions since they change the
// element type) with asynchronous terminals (ForEach, Collect, Count,
// Reduce) returning futures that must be awaited, as in the paper.

// Indexed pairs a global (view-relative) element index with its value,
// produced by Enumerate.
type Indexed[T any] struct {
	Idx int
	Val T
}

// Pair is the result type of Zip.
type Pair[A, B any] struct {
	A A
	B B
}

// iterMode distinguishes the two parallel iterator families.
type iterMode int

const (
	modeLocal iterMode = iota
	modeDist
)

// Iter is a lazy parallel iterator chain over array elements.
type Iter[T any] struct {
	w    *worldRef
	mode iterMode
	// positions is the number of base positions this PE drives.
	positions int
	chunk     int
	// drive runs the chain over base positions [lo, hi), invoking yield
	// with the view-relative index and transformed value.
	drive func(lo, hi int, yield func(idx int, v T) bool)
}

// worldRef carries the runtime handles without making Iter generic over
// the element type of the backing array.
type worldRef struct {
	pool  poolIface
	team  teamIface
	wdptr any
}

// poolIface and teamIface decouple Iter from concrete runtime types for
// testability; the runtime types satisfy them directly.
type poolIface interface {
	Submit(fn scheduler.Task)
	Workers() int
}

// chunkTasksPerWorker is the adaptive-chunk split target: parallel
// terminals aim for this many chunks per worker so work stealing can
// absorb skew from uneven filters and slow workers. The Task Bench
// sweeps (bench_results.txt §TASKBENCH) found no stable optimum, so it
// is a constant; WithChunk overrides it per iterator.
const chunkTasksPerWorker = 4

// adaptiveChunk picks the default elements-per-task for parallel
// terminals: enough chunks to give every worker ~chunkTasksPerWorker
// (absorbing skew from stealing and uneven filters), but clamped so tiny
// views do not pay per-task overhead and huge views do not queue monster
// chunks. WithChunk overrides it.
func adaptiveChunk(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	c := n / (workers * chunkTasksPerWorker)
	if c < 64 {
		c = 64
	}
	if c > 8192 {
		c = 8192
	}
	return c
}

type teamIface interface {
	AllGatherBytes(mine []byte) [][]byte
	Barrier()
}

// baseIter constructs the base iterator over the view's local elements.
func baseIter[T serde.Number](c *core[T], mode iterMode) *Iter[T] {
	rank := c.myRank()
	worldPE := c.team.WorldPE(rank)
	// Collect the local indices that fall inside the view, in ascending
	// view order.
	ll := c.st.geom.localLen(rank)
	type span struct{ local, view int }
	var spans []span
	for li := 0; li < ll; li++ {
		g := c.st.geom.globalOf(rank, li)
		if g >= c.off && g < c.off+c.len {
			spans = append(spans, span{local: li, view: g - c.off})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].view < spans[j].view })
	drive := func(lo, hi int, yield func(int, T) bool) {
		for k := lo; k < hi; k++ {
			sp := spans[k]
			vals, err := c.st.readRange(worldPE, rank, sp.local, 1)
			if err != nil {
				panic(err)
			}
			if !yield(sp.view, vals[0]) {
				return
			}
		}
	}
	// Fast path: when the view-local spans are contiguous in local memory
	// (always true for Block layout), read whole chunks at once.
	contiguous := true
	for i := 1; i < len(spans); i++ {
		if spans[i].local != spans[i-1].local+1 {
			contiguous = false
			break
		}
	}
	if contiguous && len(spans) > 0 {
		base := spans[0].local
		drive = func(lo, hi int, yield func(int, T) bool) {
			vals, err := c.st.readRange(worldPE, rank, base+lo, hi-lo)
			if err != nil {
				panic(err)
			}
			for k := lo; k < hi; k++ {
				if !yield(spans[k].view, vals[k-lo]) {
					return
				}
			}
		}
	}
	pool := c.w.Pool()
	return &Iter[T]{
		w:         &worldRef{pool: pool, team: c.team, wdptr: c.w},
		mode:      mode,
		positions: len(spans),
		chunk:     adaptiveChunk(len(spans), pool.Workers()),
		drive:     drive,
	}
}

// WithChunk sets the parallel chunk size (elements per task).
func (it *Iter[T]) WithChunk(n int) *Iter[T] {
	if n < 1 {
		n = 1
	}
	cp := *it
	cp.chunk = n
	return &cp
}

// Filter keeps elements satisfying pred.
func (it *Iter[T]) Filter(pred func(T) bool) *Iter[T] {
	prev := it.drive
	cp := *it
	cp.drive = func(lo, hi int, yield func(int, T) bool) {
		prev(lo, hi, func(i int, v T) bool {
			if !pred(v) {
				return true
			}
			return yield(i, v)
		})
	}
	return &cp
}

// Enumerate pairs each element with its (view-relative) global index.
// A free function (like Map) because the element type changes; a method
// would create an unbounded generic instantiation cycle.
func Enumerate[T any](it *Iter[T]) *Iter[Indexed[T]] {
	prev := it.drive
	return &Iter[Indexed[T]]{
		w: it.w, mode: it.mode, positions: it.positions, chunk: it.chunk,
		drive: func(lo, hi int, yield func(int, Indexed[T]) bool) {
			prev(lo, hi, func(i int, v T) bool {
				return yield(i, Indexed[T]{Idx: i, Val: v})
			})
		},
	}
}

// Skip drops elements with global index < n (index-based, as the
// distributed layout admits no cheap stream semantics).
func (it *Iter[T]) Skip(n int) *Iter[T] {
	prev := it.drive
	cp := *it
	cp.drive = func(lo, hi int, yield func(int, T) bool) {
		prev(lo, hi, func(i int, v T) bool {
			if i < n {
				return true
			}
			return yield(i, v)
		})
	}
	return &cp
}

// StepBy keeps elements whose global index is a multiple of step.
func (it *Iter[T]) StepBy(step int) *Iter[T] {
	if step <= 0 {
		panic("array: StepBy step must be positive")
	}
	prev := it.drive
	cp := *it
	cp.drive = func(lo, hi int, yield func(int, T) bool) {
		prev(lo, hi, func(i int, v T) bool {
			if i%step != 0 {
				return true
			}
			return yield(i, v)
		})
	}
	return &cp
}

// Take keeps elements with global index < n.
func (it *Iter[T]) Take(n int) *Iter[T] {
	prev := it.drive
	cp := *it
	cp.drive = func(lo, hi int, yield func(int, T) bool) {
		prev(lo, hi, func(i int, v T) bool {
			if i >= n {
				return true
			}
			return yield(i, v)
		})
	}
	return &cp
}

// Map transforms elements with f (free function: the element type changes).
func Map[T, U any](it *Iter[T], f func(T) U) *Iter[U] {
	prev := it.drive
	return &Iter[U]{
		w: it.w, mode: it.mode, positions: it.positions, chunk: it.chunk,
		drive: func(lo, hi int, yield func(int, U) bool) {
			prev(lo, hi, func(i int, v T) bool {
				return yield(i, f(v))
			})
		},
	}
}

// Zip pairs two iterators position-wise (apply before Filter: both sides
// must drive the same base positions, as with Rust's zip of two local
// iterators).
func Zip[A, B any](a *Iter[A], b *Iter[B]) *Iter[Pair[A, B]] {
	if a.positions != b.positions {
		panic(fmt.Sprintf("array: Zip of iterators with %d and %d positions", a.positions, b.positions))
	}
	ad, bd := a.drive, b.drive
	return &Iter[Pair[A, B]]{
		w: a.w, mode: a.mode, positions: a.positions, chunk: a.chunk,
		drive: func(lo, hi int, yield func(int, Pair[A, B]) bool) {
			var bv []B
			bd(lo, hi, func(_ int, v B) bool { bv = append(bv, v); return true })
			k := 0
			ad(lo, hi, func(i int, v A) bool {
				if k >= len(bv) {
					return false
				}
				p := Pair[A, B]{A: v, B: bv[k]}
				k++
				return yield(i, p)
			})
		},
	}
}

// FilterMap transforms and filters in one pass.
func FilterMap[T, U any](it *Iter[T], f func(T) (U, bool)) *Iter[U] {
	prev := it.drive
	return &Iter[U]{
		w: it.w, mode: it.mode, positions: it.positions, chunk: it.chunk,
		drive: func(lo, hi int, yield func(int, U) bool) {
			prev(lo, hi, func(i int, v T) bool {
				u, ok := f(v)
				if !ok {
					return true
				}
				return yield(i, u)
			})
		},
	}
}

// runChunks schedules per-chunk tasks and resolves when all complete.
func (it *Iter[T]) runChunks(perChunk func(lo, hi int)) *scheduler.Future[struct{}] {
	promise, future := scheduler.NewPromise[struct{}](nil)
	n := it.positions
	if n == 0 {
		promise.Complete(struct{}{})
		return future
	}
	chunks := (n + it.chunk - 1) / it.chunk
	var pending atomic.Int64
	pending.Store(int64(chunks))
	for lo := 0; lo < n; lo += it.chunk {
		lo := lo
		hi := lo + it.chunk
		if hi > n {
			hi = n
		}
		it.w.pool.Submit(func() {
			perChunk(lo, hi)
			if pending.Add(-1) == 0 {
				promise.Complete(struct{}{})
			}
		})
	}
	return future
}

// ForEach applies fn to every element; resolve the returned future to know
// the calling PE's share completed (await it, per the paper).
func (it *Iter[T]) ForEach(fn func(T)) *scheduler.Future[struct{}] {
	return it.runChunks(func(lo, hi int) {
		it.drive(lo, hi, func(_ int, v T) bool { fn(v); return true })
	})
}

// ForEachIndexed applies fn(index, value) to every element.
func (it *Iter[T]) ForEachIndexed(fn func(int, T)) *scheduler.Future[struct{}] {
	return it.runChunks(func(lo, hi int) {
		it.drive(lo, hi, func(i int, v T) bool { fn(i, v); return true })
	})
}

// Collect gathers this PE's surviving elements in ascending index order.
func (it *Iter[T]) Collect() *scheduler.Future[[]T] {
	n := it.positions
	chunks := (n + it.chunk - 1) / it.chunk
	parts := make([][]T, chunks)
	inner := it.runChunks(func(lo, hi int) {
		var part []T
		it.drive(lo, hi, func(_ int, v T) bool { part = append(part, v); return true })
		parts[lo/it.chunk] = part
	})
	return scheduler.Map(inner, func(struct{}) []T {
		var out []T
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	})
}

// CollectIndexed gathers (index, value) pairs in ascending index order.
func CollectIndexed[T any](it *Iter[T]) *scheduler.Future[[]Indexed[T]] {
	return Enumerate(it).Collect()
}

// Count resolves with the number of surviving elements on this PE.
func (it *Iter[T]) Count() *scheduler.Future[int] {
	var n atomic.Int64
	inner := it.runChunks(func(lo, hi int) {
		it.drive(lo, hi, func(int, T) bool { n.Add(1); return true })
	})
	return scheduler.Map(inner, func(struct{}) int { return int(n.Load()) })
}

// Reduce folds this PE's elements with fn (fn must be associative and
// commutative; chunks fold in parallel).
func (it *Iter[T]) Reduce(zero T, fn func(a, b T) T) *scheduler.Future[T] {
	var mu sync.Mutex
	acc := zero
	inner := it.runChunks(func(lo, hi int) {
		part := zero
		it.drive(lo, hi, func(_ int, v T) bool { part = fn(part, v); return true })
		mu.Lock()
		acc = fn(acc, part)
		mu.Unlock()
	})
	return scheduler.Map(inner, func(struct{}) T { return acc })
}

// ----- distributed collect ---------------------------------------------------

// CollectArray collectively gathers every PE's surviving elements into a
// fresh distributed ReadOnlyArray ordered by (PE chunk order, index). All
// PEs of the team must call it (DistIter terminals are collective). This
// is the iterator used by the paper's Randperm "Array Darts" variant.
func CollectArray[T serde.Number](it *Iter[T], team teamOwner[T], dist Distribution) *ReadOnlyArray[T] {
	if it.mode != modeDist {
		panic("array: CollectArray requires a DistIter")
	}
	local, err := it.Collect().Await()
	if err != nil {
		panic(err)
	}
	return collectToArray(team.teamCore(), local, dist)
}

// teamOwner lets CollectArray take any array-kind wrapper as its team
// anchor without exposing core.
type teamOwner[T serde.Number] interface{ teamCore() *core[T] }

func (a *UnsafeArray[T]) teamCore() *core[T]    { return a.c }
func (a *ReadOnlyArray[T]) teamCore() *core[T]  { return a.c }
func (a *AtomicArray[T]) teamCore() *core[T]    { return a.c }
func (a *LocalLockArray[T]) teamCore() *core[T] { return a.c }

// collectToArray builds a new distributed array from per-PE ordered
// contributions: allgather the counts, exclusive-prefix to find each PE's
// offset, construct, put, and freeze read-only.
func collectToArray[T serde.Number](c *core[T], local []T, dist Distribution) *ReadOnlyArray[T] {
	team := c.team
	enc := serde.NewEncoder(8)
	enc.PutUvarint(uint64(len(local)))
	counts := team.AllGatherBytes(enc.Bytes())
	offset, total := 0, 0
	for r, b := range counts {
		n := int(serde.NewDecoder(b).Uvarint())
		if r < team.Rank() {
			offset += n
		}
		total += n
	}
	out := NewUnsafeArray[T](team, total, dist)
	if len(local) > 0 {
		if _, err := out.Put(offset, local).Await(); err != nil {
			panic(err)
		}
	}
	team.Barrier()
	return out.IntoReadOnly()
}

// ----- one-sided iterator ------------------------------------------------------

// OneSidedIter serially iterates the whole array from the calling PE,
// fetching runtime-managed buffered chunks from remote PEs.
type OneSidedIter[T serde.Number] struct {
	c    *core[T]
	buf  int
	skip int
	step int
	take int
}

func newOneSided[T serde.Number](c *core[T], bufElems int) *OneSidedIter[T] {
	if bufElems < 1 {
		bufElems = 4096
	}
	return &OneSidedIter[T]{c: c, buf: bufElems, step: 1, take: -1}
}

// Skip drops the first n elements.
func (o *OneSidedIter[T]) Skip(n int) *OneSidedIter[T] {
	cp := *o
	cp.skip = n
	return &cp
}

// StepBy keeps every step-th element after Skip.
func (o *OneSidedIter[T]) StepBy(step int) *OneSidedIter[T] {
	if step <= 0 {
		panic("array: StepBy step must be positive")
	}
	cp := *o
	cp.step = step
	return &cp
}

// Take limits the iteration to n yielded elements.
func (o *OneSidedIter[T]) Take(n int) *OneSidedIter[T] {
	cp := *o
	cp.take = n
	return &cp
}

// Seq iterates (index, value) pairs; usable with range-over-func. Data
// moves in buffered batches so remote transfer count is O(len/buf).
func (o *OneSidedIter[T]) Seq() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		yielded := 0
		for base := o.skip; base < o.c.len; base += o.buf {
			end := base + o.buf
			if end > o.c.len {
				end = o.c.len
			}
			vals, err := o.c.getRange(base, end-base).Await()
			if err != nil {
				panic(fmt.Sprintf("array: one-sided iteration: %v", err))
			}
			for i, v := range vals {
				g := base + i
				if (g-o.skip)%o.step != 0 {
					continue
				}
				if o.take >= 0 && yielded >= o.take {
					return
				}
				if !yield(g, v) {
					return
				}
				yielded++
			}
		}
	}
}

// Chunks yields successive value buffers of at most n elements.
func (o *OneSidedIter[T]) Chunks(n int) iter.Seq[[]T] {
	if n < 1 {
		panic("array: chunk size must be positive")
	}
	return func(yield func([]T) bool) {
		var pending []T
		for _, v := range o.Seq() {
			pending = append(pending, v)
			if len(pending) == n {
				if !yield(pending) {
					return
				}
				pending = nil
			}
		}
		if len(pending) > 0 {
			yield(pending)
		}
	}
}

// CollectVec materializes the full (post skip/step/take) element sequence.
func (o *OneSidedIter[T]) CollectVec() []T {
	var out []T
	for _, v := range o.Seq() {
		out = append(out, v)
	}
	return out
}

// ZipOneSided pairs two one-sided iterations element-wise.
func ZipOneSided[A, B serde.Number](a *OneSidedIter[A], b *OneSidedIter[B]) iter.Seq[Pair[A, B]] {
	return func(yield func(Pair[A, B]) bool) {
		next, stop := iter.Pull2(b.Seq())
		defer stop()
		for _, av := range a.Seq() {
			_, bv, ok := next()
			if !ok {
				return
			}
			if !yield(Pair[A, B]{A: av, B: bv}) {
				return
			}
		}
	}
}

// ----- per-kind iterator constructors ----------------------------------------

// DistIter returns the collective distributed iterator (call on all PEs).
func (a *AtomicArray[T]) DistIter() *Iter[T] { return baseIter(a.c, modeDist) }

// LocalIter returns the one-sided local iterator.
func (a *AtomicArray[T]) LocalIter() *Iter[T] { return baseIter(a.c, modeLocal) }

// OneSidedIter returns the serial whole-array iterator.
func (a *AtomicArray[T]) OneSidedIter(bufElems int) *OneSidedIter[T] {
	return newOneSided(a.c, bufElems)
}

// DistIter returns the collective distributed iterator (call on all PEs).
func (a *ReadOnlyArray[T]) DistIter() *Iter[T] { return baseIter(a.c, modeDist) }

// LocalIter returns the one-sided local iterator.
func (a *ReadOnlyArray[T]) LocalIter() *Iter[T] { return baseIter(a.c, modeLocal) }

// OneSidedIter returns the serial whole-array iterator.
func (a *ReadOnlyArray[T]) OneSidedIter(bufElems int) *OneSidedIter[T] {
	return newOneSided(a.c, bufElems)
}

// DistIter returns the collective distributed iterator (call on all PEs).
func (a *LocalLockArray[T]) DistIter() *Iter[T] { return baseIter(a.c, modeDist) }

// LocalIter returns the one-sided local iterator.
func (a *LocalLockArray[T]) LocalIter() *Iter[T] { return baseIter(a.c, modeLocal) }

// OneSidedIter returns the serial whole-array iterator.
func (a *LocalLockArray[T]) OneSidedIter(bufElems int) *OneSidedIter[T] {
	return newOneSided(a.c, bufElems)
}

// DistIter returns the collective distributed iterator (call on all PEs).
func (a *UnsafeArray[T]) DistIter() *Iter[T] { return baseIter(a.c, modeDist) }

// LocalIter returns the one-sided local iterator.
func (a *UnsafeArray[T]) LocalIter() *Iter[T] { return baseIter(a.c, modeLocal) }

// OneSidedIter returns the serial whole-array iterator.
func (a *UnsafeArray[T]) OneSidedIter(bufElems int) *OneSidedIter[T] {
	return newOneSided(a.c, bufElems)
}

// Chunks groups consecutive surviving elements into buffers of at most n
// (the LocalIterator chunks method). Free function: the element type
// changes to []T. The chunk index is the index of its first element.
func Chunks[T any](it *Iter[T], n int) *Iter[[]T] {
	if n < 1 {
		panic("array: chunk size must be positive")
	}
	prev := it.drive
	return &Iter[[]T]{
		w: it.w, mode: it.mode, positions: it.positions, chunk: it.chunk,
		drive: func(lo, hi int, yield func(int, []T) bool) {
			var cur []T
			curIdx := -1
			prev(lo, hi, func(i int, v T) bool {
				if curIdx < 0 {
					curIdx = i
				}
				cur = append(cur, v)
				if len(cur) == n {
					ok := yield(curIdx, cur)
					cur, curIdx = nil, -1
					return ok
				}
				return true
			})
			if len(cur) > 0 {
				yield(curIdx, cur)
			}
		},
	}
}

// Sum folds this PE's numeric elements (a Reduce convenience).
func IterSum[T serde.Number](it *Iter[T]) *scheduler.Future[T] {
	return it.Reduce(0, func(a, b T) T { return a + b })
}

// Max resolves with this PE's maximum element (zero value if none).
func IterMax[T serde.Number](it *Iter[T]) *scheduler.Future[T] {
	var mu sync.Mutex
	var best T
	have := false
	inner := it.runChunks(func(lo, hi int) {
		var localBest T
		localHave := false
		it.drive(lo, hi, func(_ int, v T) bool {
			if !localHave || v > localBest {
				localBest, localHave = v, true
			}
			return true
		})
		if localHave {
			mu.Lock()
			if !have || localBest > best {
				best, have = localBest, true
			}
			mu.Unlock()
		}
	})
	return scheduler.Map(inner, func(struct{}) T { return best })
}

// Min resolves with this PE's minimum element (zero value if none).
func IterMin[T serde.Number](it *Iter[T]) *scheduler.Future[T] {
	var mu sync.Mutex
	var best T
	have := false
	inner := it.runChunks(func(lo, hi int) {
		var localBest T
		localHave := false
		it.drive(lo, hi, func(_ int, v T) bool {
			if !localHave || v < localBest {
				localBest, localHave = v, true
			}
			return true
		})
		if localHave {
			mu.Lock()
			if !have || localBest < best {
				best, have = localBest, true
			}
			mu.Unlock()
		}
	})
	return scheduler.Map(inner, func(struct{}) T { return best })
}
