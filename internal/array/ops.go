package array

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	stdruntime "runtime"

	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/serde"
)

// Op identifies an element-wise operation (§III-F3).
type Op uint8

// Element-wise operations supported by LamellarArrays.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpStore
	OpLoad
	OpSwap // store returning previous value (fetch implied)
	OpCAS  // compare-exchange (fetch implied: returns previous value)
)

func (o Op) String() string {
	names := [...]string{"add", "sub", "mul", "div", "rem", "and", "or", "xor",
		"shl", "shr", "store", "load", "swap", "cas"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// isWrite reports whether the op mutates the element.
func (o Op) isWrite() bool { return o != OpLoad }

// applyScalar computes `cur op v` for the plain (non-atomic) path.
func applyScalar[T serde.Number](op Op, cur, v T) T {
	switch op {
	case OpAdd:
		return cur + v
	case OpSub:
		return cur - v
	case OpMul:
		return cur * v
	case OpDiv:
		return cur / v
	case OpRem:
		return remT(cur, v)
	case OpAnd:
		return bitT(cur, v, OpAnd)
	case OpOr:
		return bitT(cur, v, OpOr)
	case OpXor:
		return bitT(cur, v, OpXor)
	case OpShl:
		return bitT(cur, v, OpShl)
	case OpShr:
		return bitT(cur, v, OpShr)
	case OpStore, OpSwap:
		return v
	case OpLoad:
		return cur
	default:
		panic(fmt.Sprintf("array: applyScalar of %v", op))
	}
}

// remT computes cur % v for integer kinds; it panics for floats, matching
// the paper's operator set (modulo is integral).
func remT[T serde.Number](cur, v T) T {
	switch serde.KindOf[T]() {
	case 0: // integer kinds
		return T(int64(cur) % int64(v))
	default:
		panic("array: remainder on floating-point array")
	}
}

// bitT performs the bitwise ops on the integer bit pattern.
func bitT[T serde.Number](cur, v T, op Op) T {
	if serde.KindOf[T]() != 0 {
		panic(fmt.Sprintf("array: bitwise %v on floating-point array", op))
	}
	a, b := int64(cur), int64(v)
	switch op {
	case OpAnd:
		return T(a & b)
	case OpOr:
		return T(a | b)
	case OpXor:
		return T(a ^ b)
	case OpShl:
		return T(a << uint64(b))
	case OpShr:
		return T(a >> uint64(b))
	}
	panic("unreachable")
}

// ----- native atomics -------------------------------------------------------

func atomicLoadT[T serde.Number](p *T) T {
	switch pp := any(p).(type) {
	case *int32:
		return T(atomic.LoadInt32(pp))
	case *int64:
		return T(atomic.LoadInt64(pp))
	case *uint32:
		return T(atomic.LoadUint32(pp))
	case *uint64:
		return T(atomic.LoadUint64(pp))
	}
	panic("array: native atomic on unsupported type")
}

func atomicStoreT[T serde.Number](p *T, v T) {
	switch pp := any(p).(type) {
	case *int32:
		atomic.StoreInt32(pp, int32(v))
	case *int64:
		atomic.StoreInt64(pp, int64(v))
	case *uint32:
		atomic.StoreUint32(pp, uint32(v))
	case *uint64:
		atomic.StoreUint64(pp, uint64(v))
	default:
		panic("array: native atomic on unsupported type")
	}
}

func atomicSwapT[T serde.Number](p *T, v T) T {
	switch pp := any(p).(type) {
	case *int32:
		return T(atomic.SwapInt32(pp, int32(v)))
	case *int64:
		return T(atomic.SwapInt64(pp, int64(v)))
	case *uint32:
		return T(atomic.SwapUint32(pp, uint32(v)))
	case *uint64:
		return T(atomic.SwapUint64(pp, uint64(v)))
	}
	panic("array: native atomic on unsupported type")
}

func atomicAddT[T serde.Number](p *T, v T) T { // returns previous value
	switch pp := any(p).(type) {
	case *int32:
		return T(atomic.AddInt32(pp, int32(v)) - int32(v))
	case *int64:
		return T(atomic.AddInt64(pp, int64(v)) - int64(v))
	case *uint32:
		return T(atomic.AddUint32(pp, uint32(v)) - uint32(v))
	case *uint64:
		return T(atomic.AddUint64(pp, uint64(v)) - uint64(v))
	}
	panic("array: native atomic on unsupported type")
}

func atomicCAST[T serde.Number](p *T, old, new T) bool {
	switch pp := any(p).(type) {
	case *int32:
		return atomic.CompareAndSwapInt32(pp, int32(old), int32(new))
	case *int64:
		return atomic.CompareAndSwapInt64(pp, int64(old), int64(new))
	case *uint32:
		return atomic.CompareAndSwapUint32(pp, uint32(old), uint32(new))
	case *uint64:
		return atomic.CompareAndSwapUint64(pp, uint64(old), uint64(new))
	}
	panic("array: native atomic on unsupported type")
}

// nativeApply applies op to *p atomically, returning the previous value.
func nativeApply[T serde.Number](op Op, p *T, v, casOld T) (prev T) {
	switch op {
	case OpLoad:
		return atomicLoadT(p)
	case OpStore:
		// store still reports previous for the fetch variant's benefit
		return atomicSwapT(p, v)
	case OpSwap:
		return atomicSwapT(p, v)
	case OpAdd:
		return atomicAddT(p, v)
	case OpSub:
		return atomicAddT(p, 0-v)
	case OpCAS:
		for {
			cur := atomicLoadT(p)
			if cur != casOld {
				return cur
			}
			if atomicCAST(p, casOld, v) {
				return casOld
			}
		}
	default:
		// read-modify-write via CAS loop
		for {
			cur := atomicLoadT(p)
			next := applyScalar(op, cur, v)
			if atomicCAST(p, cur, next) {
				return cur
			}
		}
	}
}

// spin locks for GenericAtomicArray elements. Contended acquisition backs
// off exponentially: yield-only spinning first (the common, short critical
// sections), then progressively longer sleeps so a pile-up on one hot
// element stops burning whole cores.
func lockElem(l *atomic.Uint32) {
	for spins := 0; !l.CompareAndSwap(0, 1); spins++ {
		if spins < 8 {
			stdruntime.Gosched()
			continue
		}
		backoff := spins - 8
		if backoff > 6 {
			backoff = 6
		}
		time.Sleep((1 << backoff) * time.Microsecond) // 1µs .. 64µs
	}
}

func unlockElem(l *atomic.Uint32) { l.Store(0) }

// ----- owner-side range application ----------------------------------------

// applyRange writes vals into rank's local data starting at local index
// start, honoring the kind's guarantee (the Fig. 2 put path).
func (s *sharedState[T]) applyRange(worldPE, rank, start int, vals []T) error {
	kind := Kind(s.kind.Load())
	if kind == KindReadOnly {
		return fmt.Errorf("array: put on ReadOnlyArray")
	}
	data := s.region.Local(worldPE)
	n := s.geom.localLen(rank)
	if start < 0 || start+len(vals) > n {
		return fmt.Errorf("array: range put [%d,%d) out of local range [0,%d)", start, start+len(vals), n)
	}
	switch kind {
	case KindUnsafe:
		copy(data[start:], vals) // plain memcopy
	case KindLocalLock:
		s.rwLocks[rank].Lock()
		copy(data[start:], vals)
		s.rwLocks[rank].Unlock()
	case KindAtomic:
		if s.native {
			for i, v := range vals {
				atomicStoreT(&data[start+i], v)
			}
		} else {
			for i, v := range vals {
				l := &s.elocks[rank][start+i]
				lockElem(l)
				data[start+i] = v
				unlockElem(l)
			}
		}
	}
	return nil
}

// readRange copies rank's local elements [start, start+n) out.
func (s *sharedState[T]) readRange(worldPE, rank, start, n int) ([]T, error) {
	kind := Kind(s.kind.Load())
	data := s.region.Local(worldPE)
	ll := s.geom.localLen(rank)
	if start < 0 || start+n > ll {
		return nil, fmt.Errorf("array: range get [%d,%d) out of local range [0,%d)", start, start+n, ll)
	}
	out := make([]T, n)
	switch kind {
	case KindLocalLock:
		s.rwLocks[rank].RLock()
		copy(out, data[start:start+n])
		s.rwLocks[rank].RUnlock()
	case KindAtomic:
		if s.native {
			for i := range out {
				out[i] = atomicLoadT(&data[start+i])
			}
		} else {
			for i := range out {
				l := &s.elocks[rank][start+i]
				lockElem(l)
				out[i] = data[start+i]
				unlockElem(l)
			}
		}
	default:
		copy(out, data[start:start+n])
	}
	return out, nil
}

// ----- wire AMs --------------------------------------------------------------

// rangePutAM writes a contiguous run into the owner's local chunk.
type rangePutAM[T serde.Number] struct {
	ID    uint64
	Start int
	Vals  []T
}

func (a *rangePutAM[T]) MarshalLamellar(e *serde.Encoder) {
	e.PutUvarint(a.ID)
	e.PutInt(a.Start)
	serde.EncodeFixedSlice(e, a.Vals)
}

func (a *rangePutAM[T]) UnmarshalLamellar(d *serde.Decoder) error {
	a.ID = d.Uvarint()
	a.Start = d.Int()
	a.Vals = serde.DecodeFixedSlice[T](d)
	return d.Err()
}

func (a *rangePutAM[T]) Exec(ctx *runtime.Context) any {
	st, rank := lookupState[T](ctx, a.ID)
	if err := st.applyRange(ctx.World.MyPE(), rank, a.Start, a.Vals); err != nil {
		panic(err)
	}
	return nil
}

// rangeGetAM reads a contiguous run from the owner's local chunk.
type rangeGetAM[T serde.Number] struct {
	ID    uint64
	Start int
	N     int
}

func (a *rangeGetAM[T]) MarshalLamellar(e *serde.Encoder) {
	e.PutUvarint(a.ID)
	e.PutInt(a.Start)
	e.PutInt(a.N)
}

func (a *rangeGetAM[T]) UnmarshalLamellar(d *serde.Decoder) error {
	a.ID = d.Uvarint()
	a.Start = d.Int()
	a.N = d.Int()
	return d.Err()
}

func (a *rangeGetAM[T]) Exec(ctx *runtime.Context) any {
	st, rank := lookupState[T](ctx, a.ID)
	out, err := st.readRange(ctx.World.MyPE(), rank, a.Start, a.N)
	if err != nil {
		panic(err)
	}
	return out
}

// reduceAM computes a local reduction on the owner.
type reduceAM[T serde.Number] struct {
	ID uint64
	Op ReduceOp
}

func (a *reduceAM[T]) MarshalLamellar(e *serde.Encoder) {
	e.PutUvarint(a.ID)
	e.PutU8(uint8(a.Op))
}

func (a *reduceAM[T]) UnmarshalLamellar(d *serde.Decoder) error {
	a.ID = d.Uvarint()
	a.Op = ReduceOp(d.U8())
	return d.Err()
}

func (a *reduceAM[T]) Exec(ctx *runtime.Context) any {
	st, rank := lookupState[T](ctx, a.ID)
	vals, err := st.readRange(ctx.World.MyPE(), rank, 0, st.geom.localLen(rank))
	if err != nil {
		panic(err)
	}
	return []T{reduceSlice(a.Op, vals)}
}

// lookupState resolves an array id on the executing PE.
func lookupState[T serde.Number](ctx *runtime.Context, id uint64) (*sharedState[T], int) {
	v := registryOf(ctx.World).get(id)
	if v == nil {
		panic(fmt.Sprintf("array: PE%d: unknown array id %d", ctx.World.MyPE(), id))
	}
	st, ok := v.(*sharedState[T])
	if !ok {
		panic(fmt.Sprintf("array: PE%d: array %d has element type mismatch", ctx.World.MyPE(), id))
	}
	rank, ok2 := st.ranks[ctx.World.MyPE()]
	if !ok2 {
		panic(fmt.Sprintf("array: PE%d is not a member of array %d's team", ctx.World.MyPE(), id))
	}
	return st, rank
}

// RegisterElemType registers the array layer's internal AMs for element
// type T under the given unique name (e.g. "u64"). The standard numeric
// types are pre-registered; call this for custom derived element types.
func RegisterElemType[T serde.Number](name string) {
	serde.RegisterNumeric[T]("array.num." + name)
	runtime.RegisterAMPooled[aggAM[T]]("array.agg." + name)
	runtime.RegisterAM[rangePutAM[T]]("array.rput." + name)
	runtime.RegisterAM[rangeGetAM[T]]("array.rget." + name)
	runtime.RegisterAM[reduceAM[T]]("array.reduce." + name)
	runtime.RegisterAM[pullNotifyAM[T]]("array.pull." + name)
}

var registerOnce sync.Once

func init() {
	registerOnce.Do(func() {
		RegisterElemType[int8]("i8")
		RegisterElemType[int16]("i16")
		RegisterElemType[int32]("i32")
		RegisterElemType[int64]("i64")
		RegisterElemType[int]("int")
		RegisterElemType[uint8]("u8")
		RegisterElemType[uint16]("u16")
		RegisterElemType[uint32]("u32")
		RegisterElemType[uint64]("u64")
		RegisterElemType[uint]("uint")
		RegisterElemType[float32]("f32")
		RegisterElemType[float64]("f64")
	})
}

// reduceSlice folds vals with the reduction operator.
func reduceSlice[T serde.Number](op ReduceOp, vals []T) T {
	var acc T
	switch op {
	case ReduceSum:
		for _, v := range vals {
			acc += v
		}
	case ReduceProd:
		acc = 1
		for _, v := range vals {
			acc *= v
		}
	case ReduceMin:
		if len(vals) == 0 {
			return acc
		}
		acc = vals[0]
		for _, v := range vals[1:] {
			if v < acc {
				acc = v
			}
		}
	case ReduceMax:
		if len(vals) == 0 {
			return acc
		}
		acc = vals[0]
		for _, v := range vals[1:] {
			if v > acc {
				acc = v
			}
		}
	default:
		panic(fmt.Sprintf("array: unknown reduction %v", op))
	}
	return acc
}

// ReduceOp identifies a built-in reduction.
type ReduceOp uint8

// Built-in reductions.
const (
	ReduceSum ReduceOp = iota
	ReduceProd
	ReduceMin
	ReduceMax
)

func (r ReduceOp) String() string {
	switch r {
	case ReduceSum:
		return "sum"
	case ReduceProd:
		return "prod"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", uint8(r))
	}
}

// reduce launches one-sided local reductions on every member PE and folds
// the partials — callable from any single PE, like the paper's
// array.sum() which internally uses AMs.
func (c *core[T]) reduce(op ReduceOp) *scheduler.Future[T] {
	if c.off != 0 || c.len != c.st.geom.glen {
		// Sub-array view: reduce via batched loads of the view.
		return scheduler.Map(c.getRange(0, c.len), func(vals []T) T {
			return reduceSlice(op, vals)
		})
	}
	n := c.team.Size()
	fs := make([]*scheduler.Future[[]T], n)
	for r := 0; r < n; r++ {
		fs[r] = runtime.ExecTyped[[]T](c.w, c.team.WorldPE(r), &reduceAM[T]{ID: c.st.id, Op: op})
	}
	return scheduler.Map(scheduler.All(c.w.Pool(), fs), func(parts [][]T) T {
		partials := make([]T, 0, n)
		for _, p := range parts {
			if len(p) > 0 {
				partials = append(partials, p[0])
			}
		}
		return reduceSlice(op, partials)
	})
}
