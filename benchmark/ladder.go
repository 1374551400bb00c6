package main

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/bale/kernels"
	"repro/internal/darc"
	"repro/internal/fabric"
	"repro/internal/kv"
	"repro/internal/memregion"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/serde"
	"repro/internal/slab"
)

// The layer ladder: each layer's public functions timed from outside, one
// layer above the other, on the same clean two-PE world the workloads use.
// It is the prologue of every traced run. A layer's self time is its
// probe's median minus the median of the layer beneath it:
//
//	kv.get_rtt_idle - array.load_rtt_idle - runtime.am.rtt_idle - memregion.get8 - fabric.get8
//
// Idle probes are single-outstanding PE0 -> PE1 calls. The nanosecond-scale
// ones run 20 000 calls in batches of 100 (so the clock read is amortised)
// and report the median batch; the round-trip ones are timer-bound (about a
// millisecond each), so they run for a fixed slice of the run length
// instead and report how many samples they got.

const (
	probeCalls = 20_000
	probeBatch = 100
	probeReps  = 3
)

// perCallNs is the median, over probeCalls/probeBatch batches, of the time
// one call of fn takes.
func perCallNs(fn func()) float64 {
	samples := make([]float64, probeCalls/probeBatch)
	for s := range samples {
		t0 := time.Now()
		for range probeBatch {
			fn()
		}
		samples[s] = float64(time.Since(t0).Nanoseconds()) / probeBatch
	}
	return median(samples)
}

// roundTrips calls op, one blocking round trip, until the slice is used or
// probeCalls samples are in, and returns the sorted samples in ns.
func roundTrips(slice time.Duration, op func()) []uint32 {
	var lat []uint32
	for start := time.Now(); len(lat) < probeCalls && (len(lat) < tailBeyond || time.Since(start) < slice); {
		t0 := time.Now()
		op()
		lat = append(lat, ns32(time.Since(t0)))
	}
	slices.Sort(lat)
	return lat
}

type ladder struct {
	m     map[string]float64 // written by PE0 only
	notes map[string]float64
	scale float64 // run length / 30 s: the time slices scale with it

	mu      sync.Mutex
	problem error // the first failed check, from either PE
}

func (l *ladder) slice(at30s time.Duration) time.Duration {
	return time.Duration(float64(at30s) * l.scale)
}

func (l *ladder) check(ok bool, format string, a ...any) {
	if ok {
		return
	}
	l.mu.Lock()
	if l.problem == nil {
		l.problem = fmt.Errorf("ladder: "+format, a...)
	}
	l.mu.Unlock()
}

// runLadder measures every workload-independent per-layer metric.
func runLadder(o options) (m, notes map[string]float64, err error) {
	l := &ladder{m: map[string]float64{}, notes: map[string]float64{}, scale: o.seconds / 30}
	l.local()
	l.schedulerProbes()
	if err := runtime.Run(worldConfig(), l.worldProbes); err != nil {
		return nil, nil, err
	}
	if err := runtime.Run(worldConfig(), l.metg); err != nil {
		return nil, nil, err
	}
	return l.m, l.notes, l.problem
}

// local: slab and serde, which need no world.
func (l *ladder) local() {
	l.m["slab.getput_ns"] = perCallNs(func() { slab.Put(slab.Get(1024)) })

	payload := make([]byte, 1024)
	enc := serde.NewEncoder(2048)
	l.m["serde.encode1k_ns"] = perCallNs(func() {
		enc.Reset()
		enc.PutBytes(payload)
	})
	dec := serde.NewDecoder(nil)
	var got []byte
	l.m["serde.decode1k_ns"] = perCallNs(func() {
		dec.Reset(enc.Bytes())
		got = dec.Bytes()
	})
	l.check(len(got) == len(payload) && dec.Err() == nil, "serde round trip lost the payload")
}

// schedulerProbes: a one-worker pool, as in the world.
func (l *ladder) schedulerProbes() {
	pool := scheduler.NewPool(worldWorkers)
	defer pool.Close()

	// Submit into a busy pool: a burst of trivial tasks, submit to last run.
	const burst = 1000
	samples := make([]float64, probeCalls/burst)
	var ran atomic.Int64
	for s := range samples {
		t0 := time.Now()
		for range burst {
			pool.Submit(func() { ran.Add(1) })
		}
		pool.Quiesce()
		samples[s] = float64(time.Since(t0).Nanoseconds()) / burst
	}
	l.m["scheduler.submit_run_ns"] = median(samples)

	// Submit into a parked pool: from Submit to the task's first instruction.
	// A worker with nothing to do parks at once, and parks counts it; so
	// after each task the loop waits for the count to move. The first task
	// only establishes that state and is not timed.
	var wake []uint32
	ranAt := make(chan time.Time)
	for start, primed := time.Now(), false; len(wake) < probeCalls && (len(wake) < tailBeyond || time.Since(start) < l.slice(300*time.Millisecond)); primed = true {
		_, _, parks, _ := pool.Stats()
		t0 := time.Now()
		pool.Submit(func() { ranAt <- time.Now() })
		if d := (<-ranAt).Sub(t0); primed {
			wake = append(wake, ns32(d))
		}
		// Spin, not sleep: a sleep of any length takes a whole timer tick
		// (about 1.1 ms on the reference box). The worker is counted as
		// parked a few instructions before it sleeps, hence the extra 50 µs.
		for {
			if _, _, p, _ := pool.Stats(); p > parks {
				break
			}
			stdruntime.Gosched()
		}
		for t := time.Now(); time.Since(t) < 50*time.Microsecond; {
		}
	}
	slices.Sort(wake)
	l.m["scheduler.wake_us"] = us(percentile(wake, 50))
	l.notes["scheduler.wake_samples"] = float64(len(wake))

	var spawn []uint32
	for range probeCalls {
		t0 := time.Now()
		v, err := scheduler.Spawn(pool, func() (int, error) { return 1, nil }).Await()
		spawn = append(spawn, ns32(time.Since(t0)))
		l.check(err == nil && v == 1, "Spawn+Await returned %d, %v", v, err)
	}
	slices.Sort(spawn)
	l.m["scheduler.spawn_await_us"] = us(percentile(spawn, 50))
	l.check(ran.Load() == probeCalls, "scheduler burst probe ran %d tasks", ran.Load())
}

// worldProbes runs SPMD on the clean world: PE0 drives, PE1 serves, and
// both take part in the collective steps.
func (l *ladder) worldProbes(w *runtime.World) {
	me := w.MyPE()
	driver := me == 0

	// fabric and memregion: raw one-sided ops on PE1's memory.
	if driver {
		prov := w.Provider()
		seg := prov.AllocSegment(64, 8)
		buf := make([]byte, 8)
		l.m["fabric.put8_ns"] = perCallNs(func() { prov.Put(0, 1, seg, 0, buf) })
		l.m["fabric.get8_ns"] = perCallNs(func() { prov.Get(0, 1, seg, 0, buf) })
		var sum uint64
		l.m["fabric.atomic_add_ns"] = perCallNs(func() { sum = prov.AtomicAdd(0, 1, seg, 0, 1) })
		l.check(sum == probeCalls, "fabric.AtomicAdd counted %d", sum)
		prov.FreeSegment(seg)

		region := memregion.NewShared(prov, fabric.AllocTyped[uint64](prov, 8), 0)
		one := []uint64{42}
		l.m["memregion.put8_ns"] = perCallNs(func() { region.Put(1, 0, one) })
		one[0] = 0
		l.m["memregion.get8_ns"] = perCallNs(func() { region.Get(1, 0, one) })
		l.check(one[0] == 42, "memregion get returned %d", one[0])
	}
	w.Barrier()

	// runtime, AM path.
	if driver {
		// Throughput probes are the median of probeReps short runs, so that
		// one moment without the second core does not decide them.
		kib := &echoAM{Data: make([]byte, 1024)}
		const stream = 100_000
		var issueNs, kops [probeReps]float64
		for r := range probeReps {
			t0 := time.Now()
			for range stream {
				w.ExecAM(1, kib) // serialised during launch, so one instance serves
			}
			issued := time.Since(t0)
			w.WaitAll()
			issueNs[r] = float64(issued.Nanoseconds()) / stream
			kops[r] = stream / time.Since(t0).Seconds() / 1e3
		}
		l.m["runtime.am.issue_ns"] = median(issueNs[:])
		l.m["runtime.am.stream_kops"] = median(kops[:])

		small := &echoAM{Data: make([]byte, 8)}
		rtt := roundTrips(l.slice(1200*time.Millisecond), func() {
			small.Seq++
			v, err := runtime.BlockOn(w, w.ExecAMReturn(1, small))
			l.check(err == nil && v == small.Seq+8, "idle AM returned %v, %v", v, err)
		})
		l.m["runtime.am.rtt_idle_p50_us"] = us(percentile(rtt, 50))
		p99, pct := gatedPercentile(rtt, 99)
		l.m["runtime.am.rtt_idle_p99_us"] = us(p99)
		l.notes["runtime.am.rtt_idle_samples"] = float64(len(rtt))
		l.notes["runtime.am.rtt_idle_tail_pct"] = pct

		var piped []uint32
		res := newClosedLoop(w, 1, 256, 1024).run(probeCalls, &piped, nil) // am_faulted's loop on a clean fabric
		l.check(res.errors+res.wrong == 0 && res.callbacks == probeCalls, "piped AMs: %+v", res)
		slices.Sort(piped)
		l.m["runtime.am.rtt_piped_p50_us"] = us(percentile(piped, 50))
	}
	// Back-to-back barriers: the mean, because whichever PE arrives last
	// passes straight through and a median would report only that half.
	const barriers = 2000
	t0 := time.Now()
	for range barriers {
		w.Barrier()
	}
	if driver {
		l.m["runtime.barrier_us"] = us(int64(time.Since(t0))) / barriers
	}

	// array: element ops on the half of the array PE1 owns.
	const elems = 2048
	arr := array.NewAtomicArray[uint64](w.Team(), elems, array.Block)
	w.Barrier()
	if driver {
		const adds = 200_000
		remote := func(i int) int { return elems/2 + i%(elems/2) }
		t0 := time.Now()
		for i := range adds {
			arr.Add(remote(i), 1)
		}
		l.m["array.add_issue_ns"] = float64(time.Since(t0).Nanoseconds()) / adds
		w.WaitAll()
		fadds := roundTrips(l.slice(400*time.Millisecond), func() {
			_, err := runtime.BlockOn(w, arr.FetchAdd(remote(0), 1))
			l.check(err == nil, "array FetchAdd: %v", err)
		})
		l.m["array.fadd_rtt_idle_p50_us"] = us(percentile(fadds, 50))
		loads := roundTrips(l.slice(400*time.Millisecond), func() {
			_, err := runtime.BlockOn(w, arr.Load(remote(1)))
			l.check(err == nil, "array Load: %v", err)
		})
		l.m["array.load_rtt_idle_p50_us"] = us(percentile(loads, 50))
		l.m["array.tax_over_am_us"] = l.m["array.load_rtt_idle_p50_us"] - l.m["runtime.am.rtt_idle_p50_us"]
		sum, err := runtime.BlockOn(w, arr.Sum())
		l.check(err == nil && sum == uint64(adds+len(fadds)), "array sum %d after %d adds", sum, adds+len(fadds))
	}
	w.Barrier()
	arr.Drop()

	// kv: the store's three ops on a key PE1 owns.
	const keys = 4096
	store := kv.New(w.Team(), keys, kv.BackendAtomic)
	w.Barrier()
	if driver {
		key := keys - 1
		l.check(store.OwnerOf(key) == 1, "key %d is not remote", key)
		probe := func(op func() error) float64 {
			return us(percentile(roundTrips(l.slice(400*time.Millisecond), func() {
				l.check(op() == nil, "kv op failed")
			}), 50))
		}
		l.m["kv.put_rtt_idle_p50_us"] = probe(func() error { _, err := runtime.BlockOn(w, store.Put(key, 7)); return err })
		l.m["kv.get_rtt_idle_p50_us"] = probe(func() error {
			v, err := runtime.BlockOn(w, store.Get(key))
			l.check(v == 7, "kv Get returned %d", v)
			return err
		})
		l.m["kv.fadd_rtt_idle_p50_us"] = probe(func() error { _, err := runtime.BlockOn(w, store.FetchAdd(key-1, 1)); return err })
		l.m["kv.tax_over_array_us"] = l.m["kv.get_rtt_idle_p50_us"] - l.m["array.load_rtt_idle_p50_us"]
	}
	w.Barrier()
	store.Drop()

	// darc: collective construction, drop, and global deallocation.
	const darcs = 50
	var darcNs []uint32
	for i := range darcs {
		t0 := time.Now()
		d := darc.New(w.Team(), i)
		dropped := d.DroppedChan()
		d.Drop()
		<-dropped
		darcNs = append(darcNs, ns32(time.Since(t0)))
	}
	if driver {
		slices.Sort(darcNs)
		l.m["darc.new_drop_us"] = us(percentile(darcNs, 50))
	}

	// bale: the manual-aggregation baseline at bulk_rw's sizes.
	b := newBulkRW(1)
	var mops [probeReps]float64
	for r := range probeReps {
		var wall time.Duration
		p := b.kernelParams(max(int(float64(b.updatesPerPE)*min(l.scale, 1)), 10_000), int64(r))
		err := kernels.Histogram["exstack"](w, p, &kernels.Timing{
			Start: func() { t0 = time.Now() },
			Stop:  func() { wall = time.Since(t0) },
		})
		l.check(err == nil, "exstack histogram: %v", err)
		mops[r] = float64(p.UpdatesPerPE*w.NumPEs()) / wall.Seconds() / 1e6
	}
	if driver {
		l.m["bale.exstack_update_mops"] = median(mops[:])
	}
	w.Barrier()
}

// metgGrains is the task-grain ladder METG(50%) is read from.
var metgGrains = []time.Duration{
	time.Microsecond, 4 * time.Microsecond, 16 * time.Microsecond,
	64 * time.Microsecond, 256 * time.Microsecond, time.Millisecond,
}

// metg runs task_stencil's graph at each grain, next to a serial run of the
// same tasks on one goroutine, and scores efficiency = serial time / (cores
// usable x parallel time). METG(50%) is the grain at which efficiency
// crosses one half, interpolated linearly in log(grain).
func (l *ladder) metg(w *runtime.World) {
	s := newTaskStencil()
	var rate float64
	if w.MyPE() == 0 {
		rate = calibrateSpin()
	}
	cores := float64(min(stdruntime.GOMAXPROCS(0), worldPEs*worldWorkers))
	eff := make([]float64, len(metgGrains))
	for g, grain := range metgGrains {
		// probeReps pairs of about 70 ms per graph at full length: a timestep
		// costs roughly 0.7 ms of latency plus four grains of work per PE.
		steps := min(max(int(l.slice(70*time.Millisecond)/(700*time.Microsecond+4*grain)), 5), 150)
		if w.MyPE() == 0 {
			s.spinIters.Store(spinItersFor(grain, rate))
		}
		w.Barrier()
		iters := s.spinIters.Load()
		var effs [probeReps]float64
		for rep := range probeReps {
			r, wall := runStencil(w, s.width, steps, iters, nil)
			if w.MyPE() == 0 {
				l.check(r.ranOnce() == uint64(s.width*steps) && r.doubles.Load() == 0, "metg graph at %v did not run each task once", grain)
				t0 := time.Now()
				for range s.width * steps {
					spinKernel(iters)
				}
				effs[rep] = time.Since(t0).Seconds() / (cores * wall.Seconds())
			}
			w.Barrier()
		}
		if w.MyPE() == 0 {
			eff[g] = median(effs[:])
			l.notes[fmt.Sprintf("scheduler.eff_pct@%v", grain)] = 100 * eff[g]
		}
	}
	if w.MyPE() == 0 {
		l.m["scheduler.metg50_us"] = metg50(metgGrains, eff)
		l.m["scheduler.coarse_eff_pct"] = 100 * eff[len(eff)-1]
	}
}

// metg50 interpolates the grain (µs) at which efficiency first reaches one
// half. A ladder that starts above one half reports its smallest grain, one
// that never gets there its largest.
func metg50(grains []time.Duration, eff []float64) float64 {
	g := func(i int) float64 { return float64(grains[i]) / 1e3 }
	if eff[0] >= 0.5 {
		return g(0)
	}
	for i := 1; i < len(eff); i++ {
		if eff[i] >= 0.5 {
			f := (0.5 - eff[i-1]) / (eff[i] - eff[i-1])
			return math.Exp(math.Log(g(i-1)) + f*(math.Log(g(i))-math.Log(g(i-1))))
		}
	}
	return g(len(grains) - 1)
}
