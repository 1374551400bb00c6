package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/runtime"
)

// kv_serve: an open-loop Zipfian mix (s = 0.99 over 4096 keys, 60/25/15
// Get/Put/FetchAdd) against kv.Store on a clean fabric, both PEs driving
// and serving. Half the window offers loRate req/s per PE, the other half
// hiRate. Latency is timed from each request's due time.
//
// Chosen because it is latency-bound: at the low rate a batch holds one or
// two ops, so aggregation does nothing and flush timers, ack hold-off and
// worker wake-up set the result; the high rate shows whether a latency fix
// gives back batching under load. Correctness is the kv package's own
// ledger: every FetchAdd and Put is entered in a kv.Result and the final
// store must agree with the merged ledgers exactly.
type kvServe struct {
	seed           int64
	keys           int
	skew           float64
	getFrac        float64
	putFrac        float64
	loRate, hiRate float64 // req/s per PE
	warmRequests   int     // per PE, unpaced, during setup
	skewExpect     uint64  // tests only: added to the completion count expected

	store   [worldPEs]*kv.Store
	ledger  [worldPEs]*kv.Result // cumulative since setup, like the store
	mix     [worldPEs]*kv.Rand
	ctrGen  [worldPEs]*kv.KeyGen
	regGen  [worldPEs]*kv.KeyGen
	nextOp  [worldPEs]uint64 // request ids for the trace
	merged  *kv.Ledger
	results [worldPEs]*openLoopResult
	classes [worldPEs][]kv.OpClass
}

func newKVServe(seed int64) *kvServe {
	return &kvServe{seed: seed, keys: 4096, skew: 0.99, getFrac: 0.60, putFrac: 0.25,
		loRate: 4000, hiRate: 64000, warmRequests: 120_000}
}

func (k *kvServe) config() runtime.Config { return worldConfig() }

func (k *kvServe) params() map[string]any {
	return map[string]any{
		"loop": "open, half the window at each rate", "keys": k.keys, "zipf_s": k.skew,
		"mix_get_put_fadd":    fmt.Sprintf("%.0f/%.0f/%.0f", 100*k.getFrac, 100*k.putFrac, 100*(1-k.getFrac-k.putFrac)),
		"lo_req_per_s_per_pe": k.loRate, "hi_req_per_s_per_pe": k.hiRate,
	}
}

func (k *kvServe) setup(w *runtime.World) {
	me := w.MyPE()
	k.store[me] = kv.New(w.Team(), k.keys, kv.BackendAtomic)
	counters, registers := kv.SplitKeys(k.keys)
	k.ledger[me] = &kv.Result{
		Counters:  counters,
		AddIssued: make([]uint64, counters),
		AddDone:   make([]uint64, counters),
		PutIssued: make([]uint32, registers),
	}
	seed := uint64(k.seed)*2654435761 + uint64(me)*7919
	k.mix[me] = kv.NewRand(seed ^ 0xA5A5A5A5)
	k.ctrGen[me] = kv.NewKeyGen(counters, k.skew, seed+1)
	k.regGen[me] = kv.NewKeyGen(registers, k.skew, seed+2)
	w.Barrier()
	k.phase(w, k.warmRequests, 0, nil)
	w.Barrier()
}

func (k *kvServe) teardown(w *runtime.World) {
	w.Barrier()
	k.store[w.MyPE()].Drop()
}

// phase drives n requests at rate from this PE and leaves the result in
// k.results[me] and the op classes in k.classes[me].
func (k *kvServe) phase(w *runtime.World, n int, rate float64, tr *tracer) (badReads uint64) {
	me := w.MyPE()
	store, led := k.store[me], k.ledger[me]
	classes := make([]kv.OpClass, n)
	var bad atomic.Uint64
	phaseStart := tr.now()
	base := k.nextOp[me]
	k.nextOp[me] += uint64(n)
	issue := func(i int, dueNs int64, done func(error)) {
		class := kv.OpFetchAdd
		switch u := k.mix[me].Float64(); {
		case u < k.getFrac:
			class = kv.OpGet
		case u < k.getFrac+k.putFrac:
			class = kv.OpPut
		}
		classes[i] = class
		var root, op uint64
		var c0 int64
		if tr != nil {
			// Request ids are unique across PEs: PE in the top byte.
			root, op, c0 = tr.newID(), uint64(me)<<56|(base+uint64(i)), tr.now()
			inner := done
			done = func(err error) {
				inner(err)
				due := phaseStart + dueNs
				tr.rec(root, op, "openloop.gen_lag", me, due, c0)
				tr.put(root, 0, op, "kv_serve.request", me, due, tr.now())
			}
		}
		name := "kv.Store.Get"
		switch class {
		case kv.OpGet:
			key := led.Counters + k.regGen[me].Next()
			store.Get(key).OnDone(func(v uint64, err error) {
				// A register holds 0 or a value that names its own key.
				if err == nil && v != 0 && int(v>>32)-1 != key {
					bad.Add(1)
				}
				done(err)
			})
		case kv.OpPut:
			name = "kv.Store.Put"
			rk := k.regGen[me].Next()
			key := led.Counters + rk
			// kv's self-describing register value: key+1, writer PE, and
			// the writer's per-key sequence number.
			val := uint64(key+1)<<32 | uint64(me&0xFFFF)<<16 | uint64(led.PutIssued[rk]&0xFFFF)
			led.PutIssued[rk]++
			store.Put(key, val).OnDone(func(_ struct{}, err error) { done(err) })
		default:
			name = "kv.Store.FetchAdd"
			key := k.ctrGen[me].Next()
			led.AddIssued[key]++
			store.FetchAdd(key, 1).OnDone(func(_ uint64, err error) {
				if err == nil {
					atomic.AddUint64(&led.AddDone[key], 1)
				}
				done(err)
			})
		}
		if tr != nil {
			tr.rec(root, op, name, me, c0, tr.now())
		}
	}
	k.results[me] = openLoop(n, rate, issue)
	k.classes[me] = classes
	led.Errors += k.results[me].errors
	return bad.Load()
}

func (k *kvServe) measure(w *runtime.World, d time.Duration, tr *tracer, out *outcome) {
	me := w.MyPE()
	half := d / 2
	for _, ph := range []struct {
		name string
		rate float64
	}{{"lo", k.loRate}, {"hi", k.hiRate}} {
		n := max(int(ph.rate*half.Seconds()), 1)
		w.Barrier()
		bad := k.phase(w, n, ph.rate, tr)
		res := k.results[me]
		if tr != nil {
			tr.sample(me, "phase."+ph.name+".end", snapshot(w))
		}

		failed := res.errors + bad + uint64(res.undrained)
		// 50 ms of the offered load outstanding is a queue, not a tail.
		if res.backlogGrowing(int64(ph.rate / 20)) {
			failed += uint64(res.outEnd)
			out.problemf("kv_serve %s on PE%d: backlog still growing at phase end (%d outstanding, %d at half time)",
				ph.name, me, res.outEnd, res.outMid)
		}
		if res.undrained > 0 {
			out.problemf("kv_serve %s on PE%d: %d requests never completed", ph.name, me, res.undrained)
		}
		lat, service, lag := make([]uint32, 0, n), make([]uint32, 0, n), make([]uint32, n)
		for i, l := range res.lat {
			lag[i] = ns32(time.Duration(res.lag[i]))
			if l > 0 {
				lat = append(lat, ns32(time.Duration(l)))
				service = append(service, ns32(time.Duration(l-res.lag[i])))
			}
		}
		completed := uint64(len(lat))
		if want := uint64(n) - res.errors - uint64(res.undrained) + k.skewExpect; completed != want {
			failed++
			out.problemf("kv_serve %s on PE%d: %d requests completed, want %d", ph.name, me, completed, want)
		}
		out.mu.Lock()
		out.attempted += uint64(n)
		out.failed += min(failed, uint64(n))
		if ph.name == "lo" {
			out.lat.add(lat)
			out.service.add(service)
			out.genLag.add(lag)
		} else {
			out.loaded.add(lat)
			out.genLagHi.add(lag)
		}
		out.mu.Unlock()
		w.Barrier()
		if ph.name == "hi" && me == 0 {
			k.hiEpochs(ph.rate, out)
		}
	}

	// The drain is over (openLoop waited for every completion): merge the
	// ledgers and let every PE check the shard it owns.
	w.Barrier()
	if me == 0 {
		k.merged = kv.MergeLedgers(k.ledger[:])
	}
	w.Barrier()
	if bad := kv.VerifyLocal(k.store[me], k.merged); len(bad) > 0 {
		out.mu.Lock()
		out.failed += uint64(len(bad))
		out.mu.Unlock()
		out.problemf("kv_serve ledger on PE%d: %d violations, first: %s", me, len(bad), bad[0])
	}
	w.Barrier()
}

// hiEpochs cuts the high-rate phase into fixed-size epochs of one second's
// worth of requests per PE. An epoch runs from the due time of its first
// request to the completion of its last-completing one, on the slower PE;
// its ops are the requests of both PEs that completed: all of them, the
// updates (Put, FetchAdd) and the reads (Get).
func (k *kvServe) hiEpochs(rate float64, out *outcome) {
	n := len(k.results[0].lat)
	per := max(min(int(rate), n), 1) // a phase shorter than a second is one epoch
	interval := 1e9 / rate
	out.mu.Lock()
	defer out.mu.Unlock()
	for first := 0; first+per <= n; first += per {
		var all, upd, get uint64
		var wall int64
		for pe := range k.results {
			for i := first; i < first+per; i++ {
				l := k.results[pe].lat[i]
				if l <= 0 {
					continue
				}
				wall = max(wall, int64(float64(i-first)*interval)+l)
				all++
				if k.classes[pe][i] == kv.OpGet {
					get++
				} else {
					upd++
				}
			}
		}
		w := time.Duration(wall)
		out.epochs = append(out.epochs, epoch{ops: all, wall: w})
		out.updates = append(out.updates, epoch{ops: upd, wall: w})
		out.gathers = append(out.gathers, epoch{ops: get, wall: w})
	}
}
