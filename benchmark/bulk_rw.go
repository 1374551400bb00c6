package main

import (
	"time"

	"repro/internal/bale/kernels"
	"repro/internal/runtime"
)

// bulk_rw: the paper's Fig. 3/4 kernels through the array layer, in
// alternating epochs — Histogram (one AtomicArray.BatchAdd of updatesPerPE
// uniform-random indices per PE: writes, nothing returned) and IndexGather
// (one ReadOnlyArray.BatchLoad of as many indices: reads that carry data
// back). Closed loop, one batch outstanding per PE. Each kernel verifies
// itself: the histogram's table sum must equal the updates issued and every
// gathered value must equal its index.
//
// Chosen because it is throughput-bound: array aggregation, serde, slab,
// the AM batch queue and the wire window do nearly all the work and the
// flush and ack timers almost none; and reads sit beside writes so a gain
// for one that costs the other shows in the same run.
type bulkRW struct {
	seed         int64
	updatesPerPE int // per epoch
	tablePerPE   int // the paper's 1000 elements per core
	warmUpdates  int // per PE, per kernel, during setup
}

func newBulkRW(seed int64) *bulkRW {
	return &bulkRW{seed: seed, updatesPerPE: 2_000_000, tablePerPE: 1000, warmUpdates: 600_000}
}

func (b *bulkRW) config() runtime.Config { return worldConfig() }

func (b *bulkRW) params() map[string]any {
	return map[string]any{
		"loop": "closed, one batch per PE", "updates_per_pe_per_epoch": b.updatesPerPE,
		"table_per_pe": b.tablePerPE, "kernels": "Histogram/IndexGather lamellar-array, alternating",
	}
}

var bulkKernels = [2]struct {
	name, call string
	run        kernels.KernelFunc
}{
	{"kernels.Histogram", "array.AtomicArray.BatchAdd", kernels.Histogram["lamellar-array"]},
	{"kernels.IndexGather", "array.ReadOnlyArray.BatchLoad", kernels.IndexGather["lamellar-array"]},
}

func (b *bulkRW) kernelParams(updates int, epoch int64) kernels.Params {
	return kernels.Params{TablePerPE: b.tablePerPE, UpdatesPerPE: updates, Seed: b.seed<<20 + epoch + 1}
}

func (b *bulkRW) setup(w *runtime.World) {
	for k, kern := range bulkKernels {
		// The kernels verify themselves; a failure here would repeat in
		// measure, where it is counted.
		_ = kern.run(w, b.kernelParams(b.warmUpdates, int64(-1-k)), nil)
	}
	w.Barrier()
}

func (b *bulkRW) teardown(*runtime.World) {} // each kernel call drops its own array

func (b *bulkRW) measure(w *runtime.World, d time.Duration, tr *tracer, out *outcome) {
	me := w.MyPE()
	ops := uint64(b.updatesPerPE) * uint64(w.NumPEs())
	start := time.Now()
	for e := int64(0); ; e++ {
		kern := bulkKernels[e%2]
		var t0 time.Time
		var wall, cpu0, cpu time.Duration
		var s0, s1 int64
		// Every PE's Start follows a barrier and its Stop a closing barrier,
		// so PE0's clocks bracket the timed work of both.
		timing := &kernels.Timing{
			Start: func() {
				cpu0, _ = cpuAndRSS()
				t0, s0 = time.Now(), tr.now()
			},
			Stop: func() {
				wall, s1 = time.Since(t0), tr.now()
				cpu1, _ := cpuAndRSS()
				cpu = cpu1 - cpu0
			},
		}
		root, c0 := tr.newID(), tr.now()
		err := kern.run(w, b.kernelParams(b.updatesPerPE, e), timing)
		c1 := tr.now()
		call := tr.rec(root, uint64(e), kern.name, me, c0, c1)
		tr.rec(call, uint64(e), kern.call, me, s0, s1)
		tr.put(root, 0, uint64(e), "bulk_rw.epoch", me, c0, c1)
		if tr != nil {
			tr.sample(me, "epoch.end", snapshot(w))
		}

		bad := w.Team().MaxU64(b2u(err != nil)) != 0
		stop := w.Team().MaxU64(b2u(time.Since(start) >= d)) != 0
		if me == 0 {
			ep := epoch{ops: ops, wall: wall}
			out.mu.Lock()
			out.attempted += ops
			out.cpuTimed += cpu
			out.epochs = append(out.epochs, ep)
			out.lat.add([]uint32{ns32(wall)})
			if e%2 == 0 {
				out.updates = append(out.updates, ep)
			} else {
				out.gathers = append(out.gathers, ep)
			}
			if bad {
				// The verifiers say that the epoch is wrong, not which ops.
				out.failed += ops
			}
			out.mu.Unlock()
		}
		if err != nil {
			out.problemf("bulk_rw epoch %d on PE%d: %v", e, me, err)
		}
		// Always end on a gather epoch so both kinds have the same count.
		if stop && e%2 == 1 {
			return
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
