package array

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/runtime"
)

// aggTestCfg isolates the array aggregation layer's own flush triggers:
// its thresholds are pushed far out so only the trigger under test can
// drain the buffers, the runtime-level envelope queue sends immediately
// (AggThresholdBytes: 1) so a dispatched batch is delivered without a
// runtime flush cycle, and the background flusher runs at 250 ms — far
// beyond any sub-100 ms "must not deliver" window, but still present
// because the shutdown quiescence protocol relies on it to drain
// completion acks.
func aggTestCfg(pes int) runtime.Config {
	return runtime.Config{
		PEs:               pes,
		Lamellae:          runtime.LamellaeShmem,
		AggBufSize:        1 << 30,
		AggFlushOps:       1 << 30,
		AggThresholdBytes: 1,
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
	cfg.AggFlushOps = 8
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
			for k := 0; k < 7; k++ {
				if got := atomic.LoadUint64(&peer[k]); got != 0 {
					t.Errorf("PE0: op %d delivered below AggFlushOps (got %d)", k, got)
				}
			}
			// The 8th op crosses AggFlushOps and must trigger dispatch
			// without any WaitAll/Barrier/Await.
			a.BatchOpVals(OpStore, []int{glen/2 + 7}, []uint64{8})
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
					t.Errorf("PE0: agg buffer did not flush after crossing AggFlushOps")
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
			a.FlushBatches()
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

func TestAggAwaitFlushes(t *testing.T) {
	// Awaiting a buffered op's future must flush the buffers itself via
	// the await hook — thresholds are out of reach, so without the hook
	// this would stall until the background flusher fires.
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

func TestAggDisabled(t *testing.T) {
	// AggBufSize < 0 must take the direct per-batch path and still be
	// correct (this is the pre-aggregation behavior and the noagg bench
	// series).
	cfg := runtime.Config{PEs: 2, Lamellae: runtime.LamellaeShmem, AggBufSize: -1}
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), 64, Block)
		defer a.Drop()
		me := w.MyPE()
		idx := remoteIdx(me, 64)
		if _, err := runtime.BlockOn(w, a.BatchFetchOp(OpAdd, []int{idx}, uint64(me+1))); err != nil {
			t.Fatal(err)
		}
		w.Barrier()
		local := a.LocalData()
		want := uint64(2 - me) // the other PE's me+1
		var got uint64
		if me == 0 {
			got = local[0]
		} else {
			got = local[len(local)-1]
		}
		if got != want {
			t.Errorf("PE%d: got %d, want %d", me, got, want)
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
	cfg := runtime.Config{PEs: 2, Lamellae: runtime.LamellaeShmem, AggFlushOps: 64}
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
// gone: its aggregator's flush hook may not pin the shared state (the
// region, per-element locks and buffers) for the world's lifetime.
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
// remote index (which creates this PE's aggregator and its flush hook),
// then drops the handle. Only a weak pointer to the shared state
// escapes.
func dropAfterRemoteAdd(w *runtime.World) weak.Pointer[sharedState[uint64]] {
	a := NewAtomicArray[uint64](w.Team(), 64, Block)
	a.Add(remoteIdx(w.MyPE(), 64), 1)
	w.WaitAll()
	st := weak.Make(a.c.st)
	a.Drop()
	return st
}
