package array

import (
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/runtime"
	"repro/internal/serde"
	"repro/internal/telemetry"
)

// aggTestCfg isolates the array aggregation layer's own flush triggers:
// AggThresholdBytes and ArrayBatchSize are pushed far out so only the
// trigger under test can drain the frames, and the background flusher
// runs at 250 ms — far beyond any sub-100 ms "must not flush" window,
// but still present because it ships the dispatched AM batches (the
// runtime queue's byte threshold is out of reach too) and the shutdown
// quiescence protocol relies on it to drain completion acks.
func aggTestCfg(pes int) runtime.Config {
	return runtime.Config{
		PEs:               pes,
		Lamellae:          runtime.LamellaeShmem,
		AggThresholdBytes: 1 << 30,
		ArrayBatchSize:    1 << 30,
		FlushInterval:     250 * time.Millisecond,
	}
}

// remoteIdx returns an index owned by the other PE of a 2-PE world.
func remoteIdx(me, glen int) int {
	if me == 0 {
		return glen - 1 // owned by PE 1 under Block
	}
	return 0 // owned by PE 0
}

func TestAggFlushOnOpThreshold(t *testing.T) {
	cfg := aggTestCfg(2)
	cfg.ArrayBatchSize = 8
	const glen = 64
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		if w.MyPE() == 0 {
			peer := a.c.st.region.Local(1) // PE1's chunk: run targets land at offsets 0..7
			// 7 ops: below the cap, so nothing may flush on its own.
			for k := 0; k < 7; k++ {
				a.BatchOpVals(OpStore, []int{glen/2 + k}, []uint64{uint64(k + 1)})
			}
			time.Sleep(50 * time.Millisecond)
			if st := w.Stats(); st.AggBatchesFlushed != 0 {
				t.Errorf("PE0: %d frames dispatched below ArrayBatchSize", st.AggBatchesFlushed)
			}
			// The 8th op reaches ArrayBatchSize and must dispatch the
			// frame without any WaitAll/Barrier/Await.
			a.BatchOpVals(OpStore, []int{glen/2 + 7}, []uint64{8})
			if st := w.Stats(); st.AggBatchesFlushed != 1 || st.AggFlushReasons[telemetry.FlushOps] != 1 {
				t.Errorf("PE0: after the 8th op: %d frames, %d on the op cap; want 1 and 1",
					st.AggBatchesFlushed, st.AggFlushReasons[telemetry.FlushOps])
			}
			deadline := time.Now().Add(2 * time.Second)
			for {
				done := true
				for k := 0; k < 8; k++ {
					if atomic.LoadUint64(&peer[k]) != uint64(k+1) {
						done = false
						break
					}
				}
				if done {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("PE0: frame dispatched on the op cap never landed")
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggFlushOnQuiesce(t *testing.T) {
	const glen = 128
	err := runtime.Run(aggTestCfg(2), func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		me := w.MyPE()
		// Each PE stores into the other PE's half; thresholds are huge, so
		// only WaitAll's flush cycle can deliver these.
		base := (1 - me) * (glen / 2)
		idxs := make([]int, glen/2)
		vals := make([]uint64, glen/2)
		for k := range idxs {
			idxs[k] = base + k
			vals[k] = uint64(me*1000 + k)
		}
		a.BatchOpVals(OpStore, idxs, vals)
		w.WaitAll()
		w.Barrier()
		local := a.LocalData()
		want := uint64((1 - me) * 1000)
		for k, got := range local {
			if got != want+uint64(k) {
				t.Errorf("PE%d: local[%d] = %d, want %d", me, k, got, want+uint64(k))
				break
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggExplicitFlush(t *testing.T) {
	const glen = 64
	err := runtime.Run(aggTestCfg(2), func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		if w.MyPE() == 0 {
			idx := remoteIdx(0, glen)
			a.BatchOpVals(OpStore, []int{idx}, []uint64{42})
			if st := w.Stats(); st.AggBatchesFlushed != 0 {
				t.Errorf("PE0: %d frames dispatched before FlushBatches", st.AggBatchesFlushed)
			}
			a.FlushBatches()
			if st := w.Stats(); st.AggFlushReasons[telemetry.FlushDrain] != 1 {
				t.Errorf("PE0: FlushBatches dispatched %d frames, want 1", st.AggFlushReasons[telemetry.FlushDrain])
			}
			deadline := time.Now().Add(2 * time.Second)
			half := glen / 2
			peer := a.c.st.region.Local(1)
			for atomic.LoadUint64(&peer[idx-half]) != 42 {
				if time.Now().After(deadline) {
					t.Error("PE0: FlushBatches did not dispatch the buffered op")
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggAwaitResolvesBufferedOp(t *testing.T) {
	// Awaiting a small-call op that sits in a shared frame resolves with
	// its result. The thresholds are out of reach, so the frame ships with
	// the next flush of its destination queue, here the background
	// flusher's.
	const glen = 64
	err := runtime.Run(aggTestCfg(2), func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		me := w.MyPE()
		f := a.BatchFetchOp(OpAdd, []int{remoteIdx(me, glen)}, 5)
		prev, err := f.Await()
		if err != nil {
			t.Errorf("PE%d: %v", me, err)
		} else if len(prev) != 1 {
			t.Errorf("PE%d: got %d results, want 1", me, len(prev))
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// padAM is a no-op AM whose payload fills a destination queue.
type padAM struct{ Pad []byte }

func (a *padAM) Exec(*runtime.Context) any                { return nil }
func (a *padAM) MarshalLamellar(e *serde.Encoder)         { e.PutBytes(a.Pad) }
func (a *padAM) UnmarshalLamellar(d *serde.Decoder) error { a.Pad = d.Bytes(); return d.Err() }

func init() { runtime.RegisterAM[padAM]("array.test.pad") }

// AM envelopes and shared array frames share one byte threshold: about
// 3 KB of AMs and then about 1.1 KB of small-call stores to the same PE
// ship as one size-triggered batch on the store that crosses 4096 bytes,
// although neither kind reaches the threshold alone.
func TestAggSharedByteThreshold(t *testing.T) {
	cfg := aggTestCfg(2)
	cfg.AggThresholdBytes = 4096
	const glen = 64
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		if w.MyPE() != 0 {
			w.Barrier()
			return
		}
		for attempt := 0; ; attempt++ {
			w.WaitAll() // start from an empty queue
			before := w.Stats()
			for k := 0; k < 3; k++ {
				w.ExecAM(1, &padAM{Pad: make([]byte, 1000)})
			}
			// Each one-index store adds a 25-byte entry estimate.
			crossed := -1
			for k := 0; k < 48 && crossed < 0; k++ {
				a.BatchOpVals(OpStore, []int{glen/2 + k%(glen/2)}, []uint64{uint64(k)})
				if w.Stats().BatchesSent != before.BatchesSent {
					crossed = k
				}
			}
			after := w.Stats()
			if after.BatchFlushReasons[telemetry.FlushTimer] != before.BatchFlushReasons[telemetry.FlushTimer] && attempt < 2 {
				continue // the background flusher cut the sequence; try again
			}
			if crossed < 0 {
				t.Error("PE0: 3 KB of AMs and 1.2 KB of stores to PE1 never shipped on the byte threshold")
				break
			}
			if d := after.BatchFlushReasons[telemetry.FlushSize] - before.BatchFlushReasons[telemetry.FlushSize]; d != 1 {
				t.Errorf("PE0: %d size-triggered batches, want 1", d)
			}
			if d := after.AggBatchesFlushed - before.AggBatchesFlushed; d != 1 {
				t.Errorf("PE0: %d array frames shipped, want 1", d)
			}
			if d := after.AggFlushReasons[telemetry.FlushSize] - before.AggFlushReasons[telemetry.FlushSize]; d != 1 {
				t.Errorf("PE0: %d array frames counted on the byte threshold, want 1", d)
			}
			break
		}
		w.WaitAll()
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggFetchOrdering(t *testing.T) {
	// Repeated fetch-adds on the same remote element buffered into ONE
	// aggregation buffer apply in submission order at the destination, so
	// the previous values must come back as exactly 0..N-1.
	const N = 100
	err := runtime.Run(aggTestCfg(2), func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), 8, Block)
		defer a.Drop()
		if w.MyPE() == 0 {
			idx := 7 // owned by PE 1
			idxs := make([]int, N)
			for k := range idxs {
				idxs[k] = idx
			}
			f := a.BatchFetchOp(OpAdd, idxs, 1)
			prev, err := f.Await()
			if err != nil {
				t.Fatal(err)
			}
			for k, p := range prev {
				if p != uint64(k) {
					t.Fatalf("fetch-add %d returned %d, want %d (per-destination order violated)", k, p, k)
				}
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggMixedOpsOneBuffer(t *testing.T) {
	// Different op types interleaved into the same destination buffer must
	// apply sequentially with correct per-op semantics.
	err := runtime.Run(aggTestCfg(2), func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), 8, Block)
		defer a.Drop()
		if w.MyPE() == 0 {
			idx := []int{6} // owned by PE 1
			a.BatchOpVals(OpStore, idx, []uint64{10})
			a.BatchOpVals(OpAdd, idx, []uint64{5})
			fSwap := a.BatchOpVals(OpSwap, idx, []uint64{100})
			fCASMiss := a.BatchCompareExchange(idx, 999, []uint64{1})
			fCASHit := a.BatchCompareExchange(idx, 100, []uint64{77})
			fLoad := a.BatchLoad(idx)

			if v := mustOne(t, fSwap); v != 15 {
				t.Errorf("swap returned %d, want 15", v)
			}
			if v := mustOne(t, fCASMiss); v != 100 {
				t.Errorf("missing CAS returned %d, want 100", v)
			}
			if v := mustOne(t, fCASHit); v != 100 {
				t.Errorf("hitting CAS returned %d, want 100", v)
			}
			if v := mustOne(t, fLoad); v != 77 {
				t.Errorf("load returned %d, want 77", v)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func mustOne(t *testing.T, f interface{ Await() ([]uint64, error) }) uint64 {
	t.Helper()
	vs, err := f.Await()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("got %d results, want 1", len(vs))
	}
	return vs[0]
}

func TestAggContiguousRuns(t *testing.T) {
	// A contiguous remote store collapses into run entries and must land
	// element-for-element; a fetch over the same range must read it back
	// in order.
	const glen = 1 << 12
	err := runtime.Run(aggTestCfg(2), func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		me := w.MyPE()
		base := (1 - me) * (glen / 2)
		n := glen / 2
		idxs := make([]int, n)
		vals := make([]uint64, n)
		for k := 0; k < n; k++ {
			idxs[k] = base + k
			vals[k] = uint64(me+1)*1_000_000 + uint64(k)
		}
		if _, err := runtime.BlockOn(w, a.BatchOpVals(OpStore, idxs, vals)); err != nil {
			t.Fatal(err)
		}
		got, err := runtime.BlockOn(w, a.BatchLoad(idxs))
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if got[k] != vals[k] {
				t.Fatalf("PE%d: elem %d = %d, want %d", me, k, got[k], vals[k])
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggLocalLockAndUnsafe(t *testing.T) {
	// The aggregated path must honor kind semantics for the other
	// aggregating array flavors too.
	const glen = 256
	err := runtime.Run(aggTestCfg(2), func(w *runtime.World) {
		ll := NewLocalLockArray[int64](w.Team(), glen, Block)
		me := w.MyPE()
		base := (1 - me) * (glen / 2)
		n := glen / 2
		idxs := make([]int, n)
		vals := make([]int64, n)
		for k := 0; k < n; k++ {
			idxs[k] = base + k
			vals[k] = int64(k)
		}
		if _, err := runtime.BlockOn(w, ll.BatchOpVals(OpAdd, idxs, vals)); err != nil {
			t.Fatal(err)
		}
		w.Barrier()
		ll.ReadLocal(func(data []int64) {
			for k, got := range data {
				if got != int64(k) {
					t.Fatalf("PE%d: locallock[%d] = %d, want %d", me, k, got, k)
				}
			}
		})
		w.Barrier()
		ll.Drop()

		ua := NewUnsafeArray[int64](w.Team(), glen, Block)
		defer ua.Drop()
		if _, err := runtime.BlockOn(w, ua.BatchOpVals(OpStore, idxs, vals)); err != nil {
			t.Fatal(err)
		}
		w.Barrier()
		for k, got := range ua.LocalData() {
			if got != int64(k) {
				t.Fatalf("PE%d: unsafe[%d] = %d, want %d", me, k, got, k)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggCyclicDistribution(t *testing.T) {
	// Cyclic layouts never merge runs; every element routes individually
	// through the buffers and must still land correctly.
	const glen = 97 // odd length exercises the remainder
	err := runtime.Run(aggTestCfg(2), func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Cyclic)
		defer a.Drop()
		if w.MyPE() == 0 {
			idxs := make([]int, glen)
			vals := make([]uint64, glen)
			for k := 0; k < glen; k++ {
				idxs[k] = k
				vals[k] = uint64(k * 3)
			}
			if _, err := runtime.BlockOn(w, a.BatchOpVals(OpStore, idxs, vals)); err != nil {
				t.Fatal(err)
			}
			got, err := runtime.BlockOn(w, a.BatchLoad(idxs))
			if err != nil {
				t.Fatal(err)
			}
			for k := range got {
				if got[k] != uint64(k*3) {
					t.Fatalf("cyclic elem %d = %d, want %d", k, got[k], k*3)
				}
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggConcurrentStress(t *testing.T) {
	// Many goroutines per PE hammering one array through the shared
	// aggregation buffers; the summed total must be exact. Run under
	// -race this exercises the shard locking and route resolution.
	const (
		glen    = 512
		workers = 8
		perG    = 200
	)
	cfg := runtime.Config{PEs: 2, Lamellae: runtime.LamellaeShmem, ArrayBatchSize: 64}
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		me := w.MyPE()
		var fetchSum atomic.Uint64
		done := make(chan struct{}, workers)
		for g := 0; g < workers; g++ {
			g := g
			go func() {
				defer func() { done <- struct{}{} }()
				for k := 0; k < perG; k++ {
					idx := (g*perG + k + me) % glen
					if k%10 == 0 {
						prev, err := a.BatchFetchOp(OpAdd, []int{idx}, 1).Await()
						if err != nil {
							t.Error(err)
							return
						}
						fetchSum.Add(prev[0]) // consume to keep the path honest
					} else {
						a.BatchAdd([]int{idx}, 1)
					}
				}
			}()
		}
		for g := 0; g < workers; g++ {
			<-done
		}
		w.WaitAll()
		w.Barrier()
		total, err := runtime.BlockOn(w, a.Sum())
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(2 * workers * perG); total != want {
			t.Errorf("PE%d: sum = %d, want %d", me, total, want)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A dropped array must become unreachable once every PE's handles are
// gone: nothing the runtime keeps (a queue's open frame, a frame's return
// callback) may pin the shared state (the region, per-element locks and
// buffers) for the world's lifetime.
func TestDroppedArrayIsCollected(t *testing.T) {
	err := runtime.Run(runtime.Config{PEs: 2, WorkersPerPE: 1, Lamellae: runtime.LamellaeShmem}, func(w *runtime.World) {
		st := dropAfterRemoteAdd(w)
		w.Barrier()
		if w.MyPE() != 0 {
			return
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			goruntime.GC()
			if st.Value() == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Error("dropped array's shared state still reachable after 2s")
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// dropAfterRemoteAdd builds an array, buffers one aggregated Add to a
// remote index (which creates this PE's aggregator and opens a frame in
// the runtime queue to the other PE), then drops the handle. Only a weak
// pointer to the shared state escapes.
func dropAfterRemoteAdd(w *runtime.World) weak.Pointer[sharedState[uint64]] {
	a := NewAtomicArray[uint64](w.Team(), 64, Block)
	a.Add(remoteIdx(w.MyPE(), 64), 1)
	w.WaitAll()
	st := weak.Make(a.c.st)
	a.Drop()
	return st
}

// routeTestCfg gives large calls a small ArrayBatchSize so private
// frames are cheap to provoke, with default flush timing.
func routeTestCfg() runtime.Config {
	return runtime.Config{PEs: 2, WorkersPerPE: 2, Lamellae: runtime.LamellaeShmem, ArrayBatchSize: 256}
}

// A call of at least ArrayBatchSize indices fills private frames: when
// it returns every shared frame is still empty and all its frames are on
// their way, the part-filled last one included, so the future resolves
// without FlushBatches or Await.
func TestAggLargeCallShipsPrivateFrames(t *testing.T) {
	cfg := routeTestCfg()
	const glen = 1 << 14
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		if w.MyPE() == 0 {
			rng := rand.New(rand.NewSource(3))
			idxs := make([]int, 3*cfg.ArrayBatchSize/2)
			for k := range idxs {
				idxs[k] = glen/2 + rng.Intn(glen/2) // PE1's half
			}
			f := a.BatchAdd(idxs, 1)
			g := a.c.agg()
			for r := range g.shared {
				// An empty append reads the slot under its queue's lock.
				w.AppendFrame(a.c.team.WorldPE(r), func() (runtime.Frame, int, bool) {
					if b := g.shared[r]; b != nil {
						t.Errorf("PE0: shared frame for rank %d holds %d entries after the call", r, len(b.ops))
					}
					return nil, 0, false
				})
			}
			if st := w.Stats(); st.AggOpsCoalesced != uint64(len(idxs)) {
				t.Errorf("PE0: %d ops dispatched by the time the call returned, want %d", st.AggOpsCoalesced, len(idxs))
			}
			select {
			case <-f.Done():
			case <-time.After(5 * time.Second):
				t.Error("PE0: large call's future did not resolve on its own")
			}
		}
		w.Barrier()
		if w.MyPE() == 1 {
			var sum uint64
			for _, v := range a.LocalData() {
				sum += v
			}
			if want := uint64(3 * cfg.ArrayBatchSize / 2); sum != want {
				t.Errorf("PE1: local sum %d, want %d", sum, want)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A contiguous run four times the op cap travels as one entry in one
// frame, aliasing the caller's values, instead of being cut at the cap;
// the owner-local run applies inline, and a contiguous load of both
// halves reads every value back through aliased one-entry frames.
func TestAggContiguousRunIsOneEntry(t *testing.T) {
	cfg := routeTestCfg()
	n := 4 * cfg.ArrayBatchSize
	glen := 2 * n
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		if w.MyPE() == 0 {
			idxs := make([]int, glen)
			vals := make([]uint64, glen)
			for k := range idxs {
				idxs[k] = k
				vals[k] = uint64(k + 1)
			}
			if _, err := runtime.BlockOn(w, a.BatchOpVals(OpStore, idxs, vals)); err != nil {
				t.Error(err)
			}
			if st := w.Stats(); st.AggBatchesFlushed != 1 || st.AggOpsCoalesced != uint64(n) {
				t.Errorf("PE0: %d frames carrying %d ops, want 1 frame carrying %d",
					st.AggBatchesFlushed, st.AggOpsCoalesced, n)
			}
			got, err := runtime.BlockOn(w, a.BatchLoad(idxs))
			if err != nil {
				t.Error(err)
			}
			for k, v := range got {
				if v != vals[k] {
					t.Errorf("PE0: load %d = %d, want %d", k, v, vals[k])
					break
				}
			}
		}
		w.Barrier()
		for k, v := range a.LocalData() {
			if want := uint64(w.MyPE()*n + k + 1); v != want {
				t.Errorf("PE%d: elem %d = %d, want %d", w.MyPE(), k, v, want)
				break
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A large fetch over random indices on both PEs returns every previous
// value in input order, whether its frame applied inline on the owner
// or crossed the wire.
func TestAggLargeFetchSpansPEs(t *testing.T) {
	cfg := routeTestCfg()
	const glen = 4096
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		me := w.MyPE()
		base := me * (glen / 2)
		local := a.LocalData()
		for k := range local {
			local[k] = uint64(10 * (base + k))
		}
		w.Barrier()
		if me == 0 {
			// Distinct indices: frames of one call are unordered with
			// respect to each other, so a repeated index would have no
			// single right answer.
			idxs := rand.New(rand.NewSource(5)).Perm(glen)[:4*cfg.ArrayBatchSize+17]
			prev, err := runtime.BlockOn(w, a.BatchFetchOp(OpAdd, idxs, 1))
			if err != nil {
				t.Error(err)
			}
			for k, v := range prev {
				if want := uint64(10 * idxs[k]); v != want {
					t.Errorf("fetch %d (index %d) = %d, want %d", k, idxs[k], v, want)
					break
				}
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
