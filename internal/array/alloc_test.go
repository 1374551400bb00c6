package array

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"repro/internal/runtime"
)

// A large call's frames come from the spares pool with their scatter
// columns already at capacity, so a random BatchAdd of 4×ArrayBatchSize
// indices allocates a fixed amount per call (its countdown, future and
// frame table, the wire frames' envelopes) and nothing per op.
//
// Budgets, from measurements on a 2-CPU x86-64 host at GOMAXPROCS 1, 2
// and 4: a steady-state call measured 10 allocations (budget 16). A
// cold call, after two GCs have emptied every sync.Pool, measured 56–58
// (budget 96); columns grown by append instead of presized measured 439.
// The race detector makes sync.Pool drop items at random, so the budget
// is checked only in normal builds.
func TestAllocBudgetLargeCall(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cfg := runtime.Config{PEs: 2, WorkersPerPE: 2, Lamellae: runtime.LamellaeShmem}
	const glen = 1 << 16
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		if w.MyPE() == 0 {
			rng := rand.New(rand.NewSource(13))
			idxs := make([]int, 4*w.Config().ArrayBatchSize)
			for i := range idxs {
				idxs[i] = rng.Intn(glen)
			}
			call := func() {
				if _, err := runtime.BlockOn(w, a.BatchAdd(idxs, 1)); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 20; i++ {
				call() // warm the spares pool, slab classes and encoders
			}
			if per := testing.AllocsPerRun(50, call); per > 16 {
				t.Errorf("steady-state large BatchAdd call averaged %.1f allocs, budget 16", per)
			}
			cold := testing.AllocsPerRun(10, func() {
				goruntime.GC()
				goruntime.GC()
				call()
			})
			if cold > 96 {
				t.Errorf("cold large BatchAdd call averaged %.1f allocs, budget 96", cold)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
