package array

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/darc"
	"repro/internal/fabric"
	"repro/internal/runtime"
	"repro/internal/serde"
)

// Kind identifies the data-access safety guarantee of an array handle,
// the paper's four array types.
type Kind int32

// Array kinds (§III-F1).
const (
	KindUnsafe Kind = iota
	KindReadOnly
	KindAtomic
	KindLocalLock
)

func (k Kind) String() string {
	switch k {
	case KindUnsafe:
		return "UnsafeArray"
	case KindReadOnly:
		return "ReadOnlyArray"
	case KindAtomic:
		return "AtomicArray"
	case KindLocalLock:
		return "LocalLockArray"
	default:
		return fmt.Sprintf("Kind(%d)", int32(k))
	}
}

// sharedState is the cross-PE state of one array. A single instance is
// shared by every PE's handles (they reach it through the per-world array
// registry when executing op AMs).
type sharedState[T serde.Number] struct {
	id     uint64
	geom   geometry
	region *fabric.TypedRegion[T] // symmetric storage, maxLocalLen per PE
	kind   atomic.Int32
	ranks  map[int]int // world PE -> team rank

	// per-team-rank access-control state
	rwLocks []*sync.RWMutex   // LocalLockArray: one per rank
	elocks  [][]atomic.Uint32 // GenericAtomicArray: per-element spinlocks
	native  bool              // NativeAtomicArray eligibility for T

	// putAMMax is the element count up to which a range put travels
	// inside an AM (Config.AggThresholdBytes) instead of an owner RDMA
	// pull, captured once at construction.
	putAMMax int

	// per-origin-PE operation aggregation buffers (see agg.go); aggPtrs is
	// indexed by world PE and read lock-free on the submission hot path
	aggMu   sync.Mutex
	aggPtrs []atomic.Pointer[aggregator[T]]

	freeOnce sync.Once
}

// arrayRegistry maps array ids to shared state for op-AM dispatch.
type arrayRegistry struct {
	mu sync.Mutex
	m  map[uint64]any
}

var nextArrayID atomic.Uint64

func registryOf(w *runtime.World) *arrayRegistry {
	return w.SharedExtState("array.registry", func() any {
		return &arrayRegistry{m: make(map[uint64]any)}
	}).(*arrayRegistry)
}

func (r *arrayRegistry) put(id uint64, s any) {
	r.mu.Lock()
	r.m[id] = s
	r.mu.Unlock()
}

func (r *arrayRegistry) get(id uint64) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[id]
}

func (r *arrayRegistry) del(id uint64) {
	r.mu.Lock()
	delete(r.m, id)
	r.mu.Unlock()
}

// core is the common per-handle state of every array kind; the public
// kind-specific types wrap it.
type core[T serde.Number] struct {
	d    *darc.Darc[*sharedState[T]]
	st   *sharedState[T]
	w    *runtime.World
	team *runtime.Team
	off  int // sub-array view offset (global)
	len  int // sub-array view length
}

// newCore collectively constructs the shared state on team. Blocking and
// collective, as the paper specifies for LamellarArray construction.
func newCore[T serde.Number](team *runtime.Team, glen int, dist Distribution, kind Kind) *core[T] {
	if glen < 0 {
		panic("array: negative length")
	}
	w := team.World()
	st := team.CollectiveKind("array.new", func() any {
		geom := newGeometry(dist, glen, team.Size())
		s := &sharedState[T]{
			id:     nextArrayID.Add(1),
			geom:   geom,
			region: fabric.AllocTyped[T](w.Provider(), geom.maxLocalLen()),
			native: nativeAtomicOK[T](),
		}
		s.putAMMax = w.Config().AggThresholdBytes / max(1, s.region.ElemSize())
		s.kind.Store(int32(kind))
		s.ranks = make(map[int]int, team.Size())
		for r, pe := range team.Members() {
			s.ranks[pe] = r
		}
		s.aggPtrs = make([]atomic.Pointer[aggregator[T]], w.NumPEs())
		s.rwLocks = make([]*sync.RWMutex, team.Size())
		s.elocks = make([][]atomic.Uint32, team.Size())
		for r := range s.rwLocks {
			s.rwLocks[r] = new(sync.RWMutex)
			s.elocks[r] = make([]atomic.Uint32, geom.localLen(r))
		}
		registryOf(w).put(s.id, s)
		return s
	}).(*sharedState[T])

	// The darc tracks distributed lifetime; the finalizer (running once
	// globally is enough, guarded by freeOnce) unregisters the array.
	d := darc.New(team, st, func(s *sharedState[T]) {
		s.freeOnce.Do(func() { registryOf(w).del(s.id) })
	})
	return &core[T]{d: d, st: st, w: w, team: team, off: 0, len: glen}
}

// nativeAtomicOK reports whether T supports Go's native atomic operations
// (the NativeAtomicArray variants).
func nativeAtomicOK[T serde.Number]() bool {
	var zero T
	switch any(zero).(type) {
	case int32, int64, uint32, uint64:
		return true
	default:
		return false
	}
}

// ----- common accessors --------------------------------------------------

// Len reports the (view's) global element count.
func (c *core[T]) Len() int { return c.len }

// Team returns the constructing team.
func (c *core[T]) Team() *runtime.Team { return c.team }

// World returns the calling PE's world handle.
func (c *core[T]) World() *runtime.World { return c.w }

// Dist reports the data layout.
func (c *core[T]) Dist() Distribution { return c.st.geom.dist }

// Kind reports the current safety kind of the underlying array.
func (c *core[T]) Kind() Kind { return Kind(c.st.kind.Load()) }

// myRank is the calling PE's team rank.
func (c *core[T]) myRank() int { return c.team.Rank() }

// localSlice returns the calling PE's local storage (full, not view-cut).
func (c *core[T]) localSlice() []T {
	n := c.st.geom.localLen(c.myRank())
	return c.st.region.Local(c.team.WorldPE(c.myRank()))[:n]
}

// globalIndex converts a view-relative index to a global index.
func (c *core[T]) globalIndex(i int) int {
	if i < 0 || i >= c.len {
		panic(fmt.Sprintf("array: index %d out of view range [0,%d)", i, c.len))
	}
	return c.off + i
}

// sub returns a view of [start, end) relative to the current view.
func (c *core[T]) sub(start, end int) *core[T] {
	if start < 0 || end < start || end > c.len {
		panic(fmt.Sprintf("array: invalid sub-array [%d,%d) of len %d", start, end, c.len))
	}
	// Sub-array handles share the same darc reference semantics as clones.
	nd := c.d.Clone()
	return &core[T]{d: nd, st: c.st, w: c.w, team: c.team, off: c.off + start, len: end - start}
}

// clone takes a new handle reference.
func (c *core[T]) clone() *core[T] {
	nd := c.d.Clone()
	cp := *c
	cp.d = nd
	return &cp
}

// drop releases the handle's reference; the backing storage is freed when
// every PE's handles are gone (asynchronously, via the darc protocol).
// Array handles never travel in AMs, so once this PE's count is zero it
// stays zero: a PE that buffered ops for the array puts them on the wire.
func (c *core[T]) drop() {
	c.d.Drop()
	if c.d.LocalRefs() == 0 && c.st.aggPtrs[c.w.MyPE()].Load() != nil {
		c.w.Flush()
	}
}

// ----- conversion ---------------------------------------------------------

// convert implements the collective kind change. Per the paper it blocks
// until exactly one reference to the array exists on each PE (the one
// performing the conversion) so the old kind's guarantees cannot be
// violated through stale handles; like the paper (footnote 2) this can
// deadlock if other references are never dropped, so we fail loudly after
// a generous timeout instead.
func (c *core[T]) convert(to Kind) *core[T] {
	deadline := time.Now().Add(30 * time.Second)
	for c.d.LocalRefs() != 1 {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("array: conversion to %v blocked: %d local references outstanding (the paper's single-reference rule)", to, c.d.LocalRefs()))
		}
		time.Sleep(50 * time.Microsecond)
	}
	// All PEs rendezvous; the first arriver flips the kind.
	c.team.CollectiveKind("array.convert", func() any {
		c.st.kind.Store(int32(to))
		return nil
	})
	c.team.Barrier()
	return c
}

// ----- public kind wrappers ------------------------------------------------

// UnsafeArray provides no access control: any PE may read or write
// anywhere, including via direct RDMA (*Unchecked methods). Intended for
// runtime internals; exposed — like the paper — with a warning.
type UnsafeArray[T serde.Number] struct{ c *core[T] }

// ReadOnlyArray permits no writes; reads need no access control and may
// use direct RDMA gets.
type ReadOnlyArray[T serde.Number] struct{ c *core[T] }

// AtomicArray guards every element with an atomic (native for
// int32/int64/uint32/uint64, a 1-word spinlock otherwise — the paper's
// NativeAtomicArray/GenericAtomicArray split).
type AtomicArray[T serde.Number] struct{ c *core[T] }

// LocalLockArray guards each PE's whole local chunk with one RwLock.
type LocalLockArray[T serde.Number] struct{ c *core[T] }

// NewUnsafeArray collectively constructs an UnsafeArray.
func NewUnsafeArray[T serde.Number](team *runtime.Team, glen int, dist Distribution) *UnsafeArray[T] {
	return &UnsafeArray[T]{c: newCore[T](team, glen, dist, KindUnsafe)}
}

// NewAtomicArray collectively constructs an AtomicArray.
func NewAtomicArray[T serde.Number](team *runtime.Team, glen int, dist Distribution) *AtomicArray[T] {
	return &AtomicArray[T]{c: newCore[T](team, glen, dist, KindAtomic)}
}

// NewLocalLockArray collectively constructs a LocalLockArray.
func NewLocalLockArray[T serde.Number](team *runtime.Team, glen int, dist Distribution) *LocalLockArray[T] {
	return &LocalLockArray[T]{c: newCore[T](team, glen, dist, KindLocalLock)}
}

// NewReadOnlyArray collectively constructs a ReadOnlyArray (typically
// converted from another kind after initialization; a fresh one is all
// zeros).
func NewReadOnlyArray[T serde.Number](team *runtime.Team, glen int, dist Distribution) *ReadOnlyArray[T] {
	return &ReadOnlyArray[T]{c: newCore[T](team, glen, dist, KindReadOnly)}
}

// Conversions (collective; enforce the single-reference rule).

// IntoReadOnly converts, consuming the handle.
func (a *UnsafeArray[T]) IntoReadOnly() *ReadOnlyArray[T] {
	return &ReadOnlyArray[T]{c: a.c.convert(KindReadOnly)}
}

// IntoAtomic converts, consuming the handle.
func (a *UnsafeArray[T]) IntoAtomic() *AtomicArray[T] {
	return &AtomicArray[T]{c: a.c.convert(KindAtomic)}
}

// IntoLocalLock converts, consuming the handle.
func (a *UnsafeArray[T]) IntoLocalLock() *LocalLockArray[T] {
	return &LocalLockArray[T]{c: a.c.convert(KindLocalLock)}
}

// IntoUnsafe converts, consuming the handle.
func (a *AtomicArray[T]) IntoUnsafe() *UnsafeArray[T] {
	return &UnsafeArray[T]{c: a.c.convert(KindUnsafe)}
}

// IntoReadOnly converts, consuming the handle.
func (a *AtomicArray[T]) IntoReadOnly() *ReadOnlyArray[T] {
	return &ReadOnlyArray[T]{c: a.c.convert(KindReadOnly)}
}

// IntoLocalLock converts, consuming the handle.
func (a *AtomicArray[T]) IntoLocalLock() *LocalLockArray[T] {
	return &LocalLockArray[T]{c: a.c.convert(KindLocalLock)}
}

// IntoAtomic converts, consuming the handle.
func (a *ReadOnlyArray[T]) IntoAtomic() *AtomicArray[T] {
	return &AtomicArray[T]{c: a.c.convert(KindAtomic)}
}

// IntoUnsafe converts, consuming the handle.
func (a *ReadOnlyArray[T]) IntoUnsafe() *UnsafeArray[T] {
	return &UnsafeArray[T]{c: a.c.convert(KindUnsafe)}
}

// IntoLocalLock converts, consuming the handle.
func (a *ReadOnlyArray[T]) IntoLocalLock() *LocalLockArray[T] {
	return &LocalLockArray[T]{c: a.c.convert(KindLocalLock)}
}

// IntoAtomic converts, consuming the handle.
func (a *LocalLockArray[T]) IntoAtomic() *AtomicArray[T] {
	return &AtomicArray[T]{c: a.c.convert(KindAtomic)}
}

// IntoUnsafe converts, consuming the handle.
func (a *LocalLockArray[T]) IntoUnsafe() *UnsafeArray[T] {
	return &UnsafeArray[T]{c: a.c.convert(KindUnsafe)}
}

// IntoReadOnly converts, consuming the handle.
func (a *LocalLockArray[T]) IntoReadOnly() *ReadOnlyArray[T] {
	return &ReadOnlyArray[T]{c: a.c.convert(KindReadOnly)}
}
