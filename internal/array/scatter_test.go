package array

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/runtime"
	"repro/internal/serde"
	"repro/internal/telemetry"
)

// scatterIdxs draws n indices of [0, glen) with duplicates (or, when
// distinct, without), cutting in a contiguous run of 2–9 indices every
// few dozen positions, so a large call fills both the run entries and the
// scatter section of its frames.
func scatterIdxs(rng *rand.Rand, n, glen int, distinct bool) []int {
	idxs := make([]int, 0, n)
	used := make(map[int]bool)
	add := func(x int) {
		if len(idxs) < n && !(distinct && used[x]) {
			idxs = append(idxs, x)
			used[x] = true
		}
	}
	for len(idxs) < n {
		if rng.Intn(40) == 0 {
			base := rng.Intn(glen - 10)
			for k := 0; k < 2+rng.Intn(8); k++ {
				add(base + k)
			}
			continue
		}
		add(rng.Intn(glen))
	}
	return idxs
}

// checkScatterModel drives c (a 2-PE array of any kind) from PE 0 with
// large calls over random indices and checks them against a sequential
// model: loads return the model in input order, and fetch ops return,
// for each index, exactly the previous values a sequential order of its
// occurrences produces (frames of one call apply in no fixed order, so
// the order among occurrences of one index is free). Writes are skipped
// on a ReadOnlyArray. An UnsafeArray gets distinct indices: two frames of
// one call may apply at once, and on an UnsafeArray writes to one element
// from both would race.
func checkScatterModel[T serde.Number](t *testing.T, w *runtime.World, c *core[T], writable bool) {
	t.Helper()
	local := c.localSlice()
	rank := c.myRank()
	for k := range local {
		local[k] = T(10 * c.st.geom.globalOf(rank, k))
	}
	w.Barrier()
	if w.MyPE() == 0 {
		if err := driveScatterModel(w, c, writable); err != nil {
			t.Errorf("%v %v: %v", c.Kind(), c.Dist(), err)
		}
	}
	w.Barrier()
}

func driveScatterModel[T serde.Number](w *runtime.World, c *core[T], writable bool) error {
	glen := c.len
	rng := rand.New(rand.NewSource(int64(glen)))
	idxs := scatterIdxs(rng, 3*w.Config().ArrayBatchSize, glen, c.Kind() == KindUnsafe)
	model := make([]T, glen)
	for x := range model {
		model[x] = T(10 * x)
	}
	run := func(op Op, fetch bool, vals []T) []T {
		got, err := runtime.BlockOn(w, c.batchOp(op, fetch, idxs, vals, nil))
		if err != nil {
			panic(err)
		}
		return got
	}
	load := func(what string) error {
		for k, v := range run(OpLoad, true, nil) {
			if v != model[idxs[k]] {
				return fmt.Errorf("%s: load %d (index %d) = %v, want %v", what, k, idxs[k], v, model[idxs[k]])
			}
		}
		return nil
	}
	if err := load("initial"); err != nil || !writable {
		return err
	}

	vals := make([]T, len(idxs))
	for k := range vals {
		vals[k] = T(k%7 + 1)
		model[idxs[k]] += vals[k]
	}
	run(OpAdd, false, vals)
	run(OpAdd, false, []T{3})
	for _, x := range idxs {
		model[x] += 3
	}
	if err := load("after adds"); err != nil {
		return err
	}

	// Fetch-add 1: the previous values of index x's c occurrences are
	// model[x], model[x]+1, …, model[x]+c-1.
	prev := run(OpAdd, true, []T{1})
	seen := map[int][]T{}
	for k, x := range idxs {
		seen[x] = append(seen[x], prev[k])
	}
	for x, ps := range seen {
		slices.Sort(ps)
		for j, p := range ps {
			if p != model[x]+T(j) {
				return fmt.Errorf("fetch-add: index %d returned %v, want %v…%v", x, ps, model[x], model[x]+T(len(ps)-1))
			}
		}
		model[x] += T(len(ps))
	}
	if err := load("after fetch-add"); err != nil {
		return err
	}

	// Swap in a distinct tag per position: index x returns its old value
	// and all but one of its tags, and keeps that one.
	tags := make([]T, len(idxs))
	for k := range tags {
		tags[k] = T(100000 + k)
	}
	prev = run(OpSwap, true, tags)
	final := run(OpLoad, true, nil)
	want, got := map[int][]T{}, map[int][]T{}
	for k, x := range idxs {
		if want[x] == nil {
			want[x] = []T{model[x]}
			got[x] = []T{final[k]}
		}
		want[x] = append(want[x], tags[k])
		got[x] = append(got[x], prev[k])
	}
	for x := range want {
		slices.Sort(want[x])
		slices.Sort(got[x])
		if !slices.Equal(want[x], got[x]) {
			return fmt.Errorf("swap: index %d holds and returned %v, want %v", x, got[x], want[x])
		}
	}

	// Broadcast swap: one occurrence per index sees the kept tag, the
	// rest see the new value.
	prev = run(OpSwap, true, []T{7})
	for k, x := range idxs {
		if prev[k] != 7 && prev[k] != final[k] {
			return fmt.Errorf("broadcast swap %d (index %d) = %v, want 7 or %v", k, x, prev[k], final[k])
		}
		model[x] = 7
	}
	return load("after broadcast swap")
}

// Large calls route single-element runs through the scatter section and
// longer runs through run entries, on every kind and both layouts.
func TestScatterMatchesSequentialModel(t *testing.T) {
	cfg := routeTestCfg()
	const glen = 1021 // odd, so Block gives the ranks unequal blocks
	for _, dist := range []Distribution{Block, Cyclic} {
		t.Run(dist.String(), func(t *testing.T) {
			err := runtime.Run(cfg, func(w *runtime.World) {
				at := NewAtomicArray[uint64](w.Team(), glen, dist)
				checkScatterModel(t, w, at.c, true)
				at.Drop()
				ai := NewAtomicArray[int64](w.Team(), glen, dist)
				checkScatterModel(t, w, ai.c, true)
				ai.Drop()
				fl := NewAtomicArray[float64](w.Team(), glen, dist)
				checkScatterModel(t, w, fl.c, true)
				fl.Drop()
				ll := NewLocalLockArray[uint64](w.Team(), glen, dist)
				checkScatterModel(t, w, ll.c, true)
				ll.Drop()
				un := NewUnsafeArray[int64](w.Team(), glen, dist)
				checkScatterModel(t, w, un.c, true)
				un.Drop()
				ro := NewUnsafeArray[uint64](w.Team(), glen, dist).IntoReadOnly()
				checkScatterModel(t, w, ro.c, false)
				ro.Drop()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A random broadcast add costs 4 bytes per op in the scatter section, so
// a large call's frames fill on the op cap long before the byte threshold.
func TestScatterFramesShipOnOpCap(t *testing.T) {
	cfg := runtime.Config{PEs: 2, WorkersPerPE: 2, Lamellae: runtime.LamellaeShmem}
	const glen = 1 << 16
	const k = 3
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := NewAtomicArray[uint64](w.Team(), glen, Block)
		defer a.Drop()
		if w.MyPE() == 0 {
			n := k * w.Config().ArrayBatchSize
			rng := rand.New(rand.NewSource(11))
			idxs := make([]int, n)
			for i := range idxs {
				idxs[i] = glen/2 + rng.Intn(glen/2) // PE1's half
			}
			if _, err := runtime.BlockOn(w, a.BatchAdd(idxs, 1)); err != nil {
				t.Error(err)
			}
			st := w.Stats()
			if st.AggFlushReasons[telemetry.FlushOps] != k || st.AggFlushReasons[telemetry.FlushSize] != 0 {
				t.Errorf("PE0: %d frames on the op cap and %d on the byte threshold, want %d and 0",
					st.AggFlushReasons[telemetry.FlushOps], st.AggFlushReasons[telemetry.FlushSize], k)
			}
		}
		w.Barrier()
		if w.MyPE() == 1 {
			var sum uint64
			for _, v := range a.LocalData() {
				sum += v
			}
			if want := uint64(k * w.Config().ArrayBatchSize); sum != want {
				t.Errorf("PE1: local sum %d, want %d", sum, want)
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A shared frame holding one scalar op, the only frame kv traffic sends,
// encodes to fixed bytes: a flags byte of 0 or 1 and no scatter section.
func TestSharedFrameEncodingUnchanged(t *testing.T) {
	golden := func(wantOut byte, op byte) []byte {
		return []byte{0x3, wantOut, 0x1, op, 0x1, 0x2, 0x0, 0x0,
			0x5, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
			0x1, 0x6, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
			0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
			0x1, 0x6, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
			0x7, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}
	}
	for _, c := range []struct {
		name string
		out  []uint64
		want []byte
	}{
		{"add", nil, golden(0, uint8(OpAdd))},
		{"fetch-add", make([]uint64, 1), golden(1, uint8(OpAdd)|entryFetch)},
	} {
		b := new(aggBatch[uint64])
		b.add(OpAdd, 5, 1, false, []uint64{7}, nil, c.out, nil, 8)
		b.seal(3)
		if got := encodeFrame(b.am); !bytes.Equal(got, c.want) {
			t.Errorf("%s: frame encodes as\n%#v\nwant\n%#v", c.name, got, c.want)
		}
	}
}
